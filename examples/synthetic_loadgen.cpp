/**
 * @file
 * Example: load-sweep study with synthetic service-time
 * distributions — sweeps offered load on one machine and prints the
 * latency-vs-load curve, locating the saturation knee.
 *
 * Usage: synthetic_loadgen [machine=um] [dist=exp|lgn|bim]
 *                          [servers=2] [points=6] [max_rps=200000]
 */

#include <cstdio>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);

    const std::string kind = cfg.getString("machine", "um");
    MachineParams mp;
    if (kind == "um")
        mp = uManycoreParams();
    else if (kind == "so")
        mp = scaleOutParams();
    else if (kind == "sc")
        mp = serverClassParams();
    else
        fatal("unknown machine '%s'", kind.c_str());

    SyntheticParams sp;
    const std::string dist = cfg.getString("dist", "exp");
    if (dist == "exp")
        sp.dist = SynthDist::Exponential;
    else if (dist == "lgn")
        sp.dist = SynthDist::Lognormal;
    else if (dist == "bim")
        sp.dist = SynthDist::Bimodal;
    else
        fatal("unknown dist '%s'", dist.c_str());

    const ServiceCatalog catalog = buildSynthetic(sp);
    const int points = static_cast<int>(cfg.getInt("points", 6));
    const double max_rps = cfg.getDouble("max_rps", 200000.0);
    const std::uint32_t servers =
        static_cast<std::uint32_t>(cfg.getInt("servers", 2));
    cfg.rejectUnread();

    std::printf("machine=%s dist=%s sweep to %.0f RPS/server\n",
                mp.name.c_str(), synthDistName(sp.dist), max_rps);

    Table t({"RPS/server", "avg (ms)", "p99 (ms)", "p99/avg",
             "throughput", "rejected"});
    for (int i = 1; i <= points; ++i) {
        const double rps =
            max_rps * static_cast<double>(i) / points;
        ExperimentConfig exp;
        exp.machine = mp;
        exp.cluster.numServers = servers;
        exp.rpsPerServer = rps;
        exp.arrivals = ArrivalKind::Bursty;
        exp.measure = fromMs(200.0);
        const RunMetrics m = runExperiment(catalog, exp);
        t.addRow({Table::num(rps, 0),
                  Table::num(m.overall.avgMs, 3),
                  Table::num(m.overall.p99Ms, 3),
                  Table::num(m.overall.avgMs > 0.0
                                 ? m.overall.p99Ms / m.overall.avgMs
                                 : 0.0),
                  Table::num(m.throughputRps, 0),
                  std::to_string(m.rejected)});
    }
    std::printf("%s", t.format().c_str());
    return 0;
}
