/**
 * @file
 * Resilience experiment: tail latency and goodput as on-package ICN
 * links (or NH nodes, or villages) fail, for μManycore's leaf-spine
 * (ECMP route-around) vs ScaleOut's fat tree (one path per endpoint
 * pair — a dead link partitions it). Client-side recovery (timeout,
 * exponential backoff, retry budget) is on for every point so the
 * curves show what an end user experiences, not just raw drops.
 *
 * Faults land mid-warmup (warmup/2) so the measurement window sees
 * the degraded steady state, not the transient.
 *
 * Options beyond the common bench flags:
 *   kind=link|node|village   what fails          (default link)
 *   max_failures=N           sweep 0,1,2,4,..,N  (default 8)
 *   rps=R                    offered RPS/server  (default 5000)
 */

#include "bench/common.hh"
#include "fault/fault_state.hh"
#include "fault/injector.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

struct Point
{
    double p99Ms = 0.0;
    double goodput = 0.0;   //!< Completed roots/s per server.
    double rejRate = 0.0;
    double retries = 0.0;
    double shed = 0.0;      //!< Roots the client gave up on.
};

/** Doubling failure counts 0, 1, 2, 4, ... up to @p max. */
std::vector<std::uint32_t>
failureCounts(std::uint32_t max)
{
    std::vector<std::uint32_t> counts{0};
    for (std::uint32_t k = 1; k <= max; k *= 2)
        counts.push_back(k);
    return counts;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);

    banner("Resilience", "P99 and goodput vs injected failures");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<std::pair<std::string, MachineParams>> machines =
        {
            {"uManycore", uManycoreParams()},
            {"ScaleOut", scaleOutParams()},
        };
    const std::string kind = args.cfg.getString("kind", "link");
    if (kind != "link" && kind != "node" && kind != "village")
        fatal("kind must be link, node, or village (got '%s')",
              kind.c_str());
    const std::vector<std::uint32_t> counts =
        failureCounts(static_cast<std::uint32_t>(
            args.cfg.getInt("max_failures", 8)));
    const double rps = args.cfg.getDouble("rps", 5000.0);
    args.cfg.rejectUnread();

    const std::size_t npoints = machines.size() * counts.size();
    SweepRunner runner(args.jobs);
    const std::vector<Point> points =
        runner.map<Point>(npoints, [&](std::size_t i) {
            const auto &[name, mp] = machines[i / counts.size()];
            const std::uint32_t failures = counts[i % counts.size()];

            ExperimentConfig cfg =
                evalConfig(mp, rps, args, ArrivalKind::Bursty);
            cfg.cluster.recovery.enabled = true;
            cfg.obs = obsForPoint(args.obs, i, npoints);

            // Independent failure sets per server (seed + server) so
            // the cluster degrades unevenly, like a real fleet.
            const Tick at = cfg.warmup / 2;
            const std::unique_ptr<Topology> topo = makeTopology(mp);
            const std::uint32_t villages =
                mp.numCores / mp.coresPerVillage;
            for (ServerId s = 0; s < cfg.cluster.numServers; ++s) {
                FaultPlan plan;
                if (kind == "link") {
                    plan = randomLinkFailures(*topo, failures, at,
                                              args.seed + s, s);
                } else if (kind == "node") {
                    plan = randomNodeFailures(*topo, failures, at,
                                              args.seed + s, s);
                } else {
                    plan = randomVillageFailures(
                        villages, failures, at, args.seed + s, s);
                }
                cfg.faults.events.insert(cfg.faults.events.end(),
                                         plan.events.begin(),
                                         plan.events.end());
            }

            StatsDump stats;
            const RunMetrics m =
                runExperiment(catalog, cfg, &stats);
            Point pt;
            pt.p99Ms = m.overall.p99Ms;
            pt.goodput =
                m.throughputRps / cfg.cluster.numServers;
            pt.rejRate = m.rejectionRate();
            pt.retries = stats.value("cluster.recovery.retries");
            pt.shed = stats.value("cluster.recovery.shed_roots");
            return pt;
        });

    Table t({"machine", std::string("failed ") + kind + "s",
             "P99 ms", "goodput RPS/server", "rejection rate",
             "retries", "client give-ups"});
    for (std::size_t i = 0; i < npoints; ++i) {
        const Point &pt = points[i];
        t.addRow({machines[i / counts.size()].first,
                  Table::num(counts[i % counts.size()], 0),
                  Table::num(pt.p99Ms, 3), Table::num(pt.goodput, 0),
                  Table::num(pt.rejRate, 4),
                  Table::num(pt.retries, 0),
                  Table::num(pt.shed, 0)});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("leaf-spine ECMP routes around dead links; the fat "
                "tree's single path partitions instead, so its "
                "goodput falls and give-ups climb with every "
                "failure.\n");
    return 0;
}
