/**
 * @file
 * Example: the paper's headline experiment as an application — run
 * the social-network workload on all three machines at one load and
 * print per-endpoint latency with reductions.
 *
 * Usage: social_network [rps=15000] [servers=4] [seed=1]
 */

#include <cstdio>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "sim/config.hh"
#include "workload/app_graph.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const double rps = cfg.getDouble("rps", 15000.0);
    const std::uint32_t servers =
        static_cast<std::uint32_t>(cfg.getInt("servers", 4));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    cfg.rejectUnread();

    const ServiceCatalog catalog = buildSocialNetwork();

    std::vector<std::string> names;
    std::vector<RunMetrics> runs;
    for (const auto &[name, mp] :
         std::vector<std::pair<std::string, MachineParams>>{
             {"ServerClass", serverClassParams()},
             {"ScaleOut", scaleOutParams()},
             {"uManycore", uManycoreParams()}}) {
        std::printf("running %s at %.0f RPS/server on %u "
                    "servers...\n",
                    name.c_str(), rps, servers);
        ExperimentConfig exp;
        exp.machine = mp;
        exp.cluster.numServers = servers;
        exp.rpsPerServer = rps;
        exp.arrivals = ArrivalKind::Bursty;
        exp.seed = seed;
        names.push_back(name);
        runs.push_back(runExperiment(catalog, exp));
    }
    std::printf("\n");

    printNormalizedByApp("P99 tail latency", names, runs,
                         [](const LatencyStats &s) { return s.p99Ms; },
                         "ms");
    printNormalizedByApp("average latency", names, runs,
                         [](const LatencyStats &s) { return s.avgMs; },
                         "ms");

    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::printf("%-12s core util %5.1f%%  dispatcher %5.1f%%  "
                    "ICN mean/max %.2f/%.1f%%\n",
                    names[i].c_str(),
                    100.0 * runs[i].avgCoreUtilization,
                    100.0 * runs[i].dispatcherUtilization,
                    100.0 * runs[i].meanLinkUtilization,
                    100.0 * runs[i].maxLinkUtilization);
    }
    return 0;
}
