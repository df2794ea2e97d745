/**
 * @file
 * Fig 15 reproduction: contributions of the four μManycore
 * techniques to tail-latency reduction at 15K RPS, applied
 * cumulatively over ScaleOut: villages, leaf-spine ICN, hardware
 * scheduling, hardware context switching.
 *
 * Paper shape: cumulative reductions of 1.1x, 2.3x, 3.9x, 7.4x —
 * every step helps, hardware context switching the most, villages
 * the least (their win is area/power, not latency).
 */

#include "bench/common.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);
    const double rps = args.cfg.getDouble("rps", 15000.0);
    args.cfg.rejectUnread();

    banner("Fig 15", "tail-latency reduction breakdown at 15K RPS");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<std::pair<std::string, MachineParams>> ladder = {
        {"ScaleOut", scaleOutParams()},
        {"+villages", ablationVillages()},
        {"+leaf-spine", ablationLeafSpine()},
        {"+hw-sched", ablationHwSched()},
        {"+hw-cs (uManycore)", ablationHwCs()},
    };

    struct PointResult
    {
        RunMetrics metrics;
        AttribResult attrib;
    };

    SweepRunner runner(args.jobs);
    const std::vector<PointResult> runs =
        runner.map<PointResult>(ladder.size(), [&](std::size_t i) {
            const auto &[name, mp] = ladder[i];
            std::fprintf(stderr, "running %s...\n", name.c_str());
            ExperimentConfig cfg =
                evalConfig(mp, rps, args, ArrivalKind::Bursty);
            cfg.obs = obsForPoint(args.obs, i, ladder.size());
            PointResult r;
            r.metrics = runExperiment(catalog, cfg, nullptr,
                                      &r.attrib);
            return r;
        });

    Table t({"configuration", "P99 (ms)", "cumulative reduction",
             "paper"});
    const char *paper[5] = {"1.0", "1.1", "2.3", "3.9", "7.4"};
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const double base = runs[0].metrics.overall.p99Ms;
        const double cur = runs[i].metrics.overall.p99Ms;
        t.addRow({ladder[i].first, Table::num(cur, 3),
                  Table::num(cur > 0.0 ? base / cur : 0.0),
                  paper[i]});
    }
    std::printf("%s\n", t.format().c_str());

    // Cross-check: the measured per-request ledger against the §3.3
    // analytic decomposition (queued / blocked / running) that the
    // simulator already tracks independently. The three comparable
    // pairs must agree — disagreement means a charge site is wrong.
    std::printf("Ledger vs analytic decomposition "
                "(mean us/request):\n");
    Table x({"configuration", "component", "ledger", "analytic",
             "diff %"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const AttribResult &a = runs[i].attrib;
        const auto mean = [&a](AttribComp c) {
            return a.perRequestMeanUs[static_cast<std::size_t>(c)];
        };
        const struct
        {
            const char *name;
            double ledger;
            double analytic;
        } rows[] = {
            {"rq_wait", mean(AttribComp::RqWait),
             a.analyticQueuedUs},
            {"blocked_on_child", mean(AttribComp::BlockedOnChild),
             a.analyticBlockedUs},
            {"service_exec+coherence",
             mean(AttribComp::ServiceExec) +
                 mean(AttribComp::CoherenceStall),
             a.analyticRunningUs},
        };
        for (const auto &r : rows) {
            const double diff =
                r.analytic > 0.0
                    ? 100.0 * (r.ledger - r.analytic) / r.analytic
                    : 0.0;
            x.addRow({ladder[i].first, r.name,
                      Table::num(r.ledger, 3),
                      Table::num(r.analytic, 3),
                      Table::num(diff, 2)});
        }
        if (a.ledgerMismatches != 0) {
            std::printf("WARNING: %s: %llu roots missed the ledger "
                        "sum invariant\n",
                        ladder[i].first.c_str(),
                        static_cast<unsigned long long>(
                            a.ledgerMismatches));
        }
    }
    std::printf("%s\n", x.format().c_str());

    // Per-app detail for the final configuration.
    printNormalizedByApp(
        "Fig 15 detail: per-app tail, ScaleOut vs full uManycore",
        {"ScaleOut", "uManycore"},
        {runs.front().metrics, runs.back().metrics},
        [](const LatencyStats &s) { return s.p99Ms; }, "ms");
    return 0;
}
