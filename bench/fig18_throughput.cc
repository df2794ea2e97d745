/**
 * @file
 * Fig 18 reproduction: maximum throughput each machine sustains
 * without violating QoS (§6.5: a violation is a request whose
 * end-to-end time exceeds 5x the contention-free average; at most
 * 1% of requests may violate).
 *
 * Paper shape: μManycore reaches 13.9–17.1x the ServerClass
 * throughput (15.5x average) and 4.3x ScaleOut's; absolute
 * μManycore throughput 150–254 KRPS per server.
 */

#include "bench/common.hh"
#include "driver/qos.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);

    banner("Fig 18", "maximum QoS-bounded throughput");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<std::pair<std::string, MachineParams>> machines =
        {
            {"ServerClass", serverClassParams()},
            {"ScaleOut", scaleOutParams()},
            {"uManycore", uManycoreParams()},
        };

    // QoS searches are expensive; default to a smaller cluster and
    // shorter windows than the latency figures.
    BenchArgs search = args;
    search.servers = static_cast<std::uint32_t>(
        args.cfg.getInt("servers", 4));
    search.measure = fromMs(args.cfg.getDouble("measure_ms", 150.0));
    QosSearchConfig qcfg;
    qcfg.loRps = args.cfg.getDouble("lo_rps", 2000.0);
    qcfg.hiRps = args.cfg.getDouble("hi_rps", 400000.0);
    qcfg.iterations =
        static_cast<std::uint32_t>(args.cfg.getInt("iters", 8));
    args.cfg.rejectUnread();

    // Each machine's whole binary search is one sweep point: the
    // iterations inside a search are sequential (each depends on the
    // last verdict), but the three searches are independent.
    SweepRunner runner(args.jobs);
    const std::vector<double> max_rps =
        runner.map<double>(machines.size(), [&](std::size_t i) {
            const auto &[name, mp] = machines[i];
            std::fprintf(stderr, "QoS search for %s...\n",
                         name.c_str());
            ExperimentConfig base =
                evalConfig(mp, 0.0, search, ArrivalKind::Bursty);
            base.obs = obsForPoint(args.obs, i, machines.size());
            const QosResult r =
                findMaxQosThroughput(catalog, base, qcfg);
            std::fprintf(stderr, "  -> %.0f RPS/server (viol %.3f)\n",
                         r.maxRpsPerServer, r.violationRateAtMax);
            return r.maxRpsPerServer;
        });

    Table t({"machine", "max RPS/server", "normalized to ServerClass",
             "paper"});
    const char *paper[3] = {"1.0", "3.6", "15.5"};
    for (std::size_t m = 0; m < machines.size(); ++m) {
        t.addRow({machines[m].first, Table::num(max_rps[m], 0),
                  Table::num(max_rps[m] / max_rps[0]), paper[m]});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("paper absolute: uManycore 150-254 KRPS per server "
                "(avg 186.5 KRPS)\n");
    return 0;
}
