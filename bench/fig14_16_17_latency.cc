/**
 * @file
 * Figs 14, 16, 17 reproduction from one set of runs: tail (P99)
 * latency, average latency, and tail-to-average ratio for the
 * ServerClass, ScaleOut, and μManycore machines on the
 * social-network applications at 5K, 10K and 15K RPS per server,
 * on a 10-server cluster (§5).
 *
 * Paper shape: μManycore reduces tail latency over ServerClass by
 * 6.3x/8.3x/16.7x at 5/10/15K RPS (5.4x/6.5x/7.4x over ScaleOut);
 * average latency by 2.3x/3.2x/5.6x (2.1x/2.5x/3.2x); and the
 * tail-to-average ratio is 2.7x (2.3x) lower.
 */

#include "bench/common.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    args.cfg.rejectUnread();
    setInformEnabled(false);

    banner("Figs 14/16/17",
           "tail, average, and tail-to-average latency: "
           "ServerClass vs ScaleOut vs uManycore");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<std::pair<std::string, MachineParams>> machines =
        {
            {"ServerClass", serverClassParams()},
            {"ScaleOut", scaleOutParams()},
            {"uManycore", uManycoreParams()},
        };
    const std::vector<double> loads = {5000.0, 10000.0, 15000.0};

    // One sweep point per (load, machine); points are independent,
    // so they fan out over --jobs threads. Results come back in
    // sweep order, keeping the report identical for any job count.
    const std::size_t npoints = loads.size() * machines.size();
    SweepRunner runner(args.jobs);
    const std::vector<RunMetrics> flat =
        runner.map<RunMetrics>(npoints, [&](std::size_t i) {
            const double rps = loads[i / machines.size()];
            const auto &[name, mp] = machines[i % machines.size()];
            std::fprintf(stderr, "running %s @ %.0f RPS/server...\n",
                         name.c_str(), rps);
            ExperimentConfig cfg =
                evalConfig(mp, rps, args, ArrivalKind::Bursty);
            cfg.obs = obsForPoint(args.obs, i, npoints);
            return runExperiment(catalog, cfg);
        });

    // runs[load][machine]
    std::vector<std::vector<RunMetrics>> runs;
    for (std::size_t l = 0; l < loads.size(); ++l) {
        runs.emplace_back(flat.begin() +
                              static_cast<std::ptrdiff_t>(
                                  l * machines.size()),
                          flat.begin() +
                              static_cast<std::ptrdiff_t>(
                                  (l + 1) * machines.size()));
    }

    const std::vector<std::string> names = {"ServerClass", "ScaleOut",
                                            "uManycore"};
    const char *subfig[3] = {"a (5K RPS)", "b (10K RPS)",
                             "c (15K RPS)"};
    for (std::size_t l = 0; l < loads.size(); ++l) {
        printNormalizedByApp(
            std::string("Fig 14") + subfig[l] + ": P99 tail latency",
            names, runs[l],
            [](const LatencyStats &s) { return s.p99Ms; }, "ms");
    }
    for (std::size_t l = 0; l < loads.size(); ++l) {
        printNormalizedByApp(
            std::string("Fig 16") + subfig[l] + ": average latency",
            names, runs[l],
            [](const LatencyStats &s) { return s.avgMs; }, "ms");
    }

    // Fig 17: tail-to-average ratio, averaged across loads.
    std::printf("== Fig 17: tail-to-average latency ratio "
                "(averaged across loads) ==\n");
    Table t({"machine", "tail/avg", "normalized to ServerClass"});
    std::vector<double> t2a(machines.size(), 0.0);
    for (std::size_t m = 0; m < machines.size(); ++m) {
        double sum = 0.0;
        for (std::size_t l = 0; l < loads.size(); ++l) {
            const auto &ov = runs[l][m].overall;
            if (ov.avgMs > 0.0)
                sum += ov.p99Ms / ov.avgMs;
        }
        t2a[m] = sum / static_cast<double>(loads.size());
    }
    for (std::size_t m = 0; m < machines.size(); ++m) {
        t.addRow({names[m], Table::num(t2a[m]),
                  Table::num(t2a[m] / t2a[0], 3)});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("paper: uManycore tail/avg is 2.7x lower than "
                "ServerClass and 2.3x lower than ScaleOut\n");
    return 0;
}
