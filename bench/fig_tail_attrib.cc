/**
 * @file
 * Tail-latency attribution: where do the slowest requests spend
 * their time, and does the attribution pipeline localise an injected
 * bottleneck?
 *
 * Part 1 contrasts μManycore and ScaleOut under the social-network
 * workload at load: the same offered stream, two very different
 * "why is P99.9 slow" answers (ScaleOut's tail is queueing/software
 * scheduling; μManycore's is dominated by actual service work).
 *
 * Part 2 injects a bottleneck into the deterministic fan-out tree —
 * one leaf service slowed by a constant factor — and checks that the
 * profiler's rank-1 tail component moves to service execution, with
 * the slowed subtree on every captured critical path.
 */

#include "bench/common.hh"
#include "workload/synthetic.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

/** Ranked nonzero tail components, as one summary line. */
std::string
rankedLine(const TailProfiler &prof)
{
    std::string out;
    for (const auto &[comp, ticks] : prof.rankedTail()) {
        if (ticks == 0)
            continue;
        if (!out.empty())
            out += ", ";
        out += strprintf("%s=%.1fus", attribCompName(comp),
                         static_cast<double>(ticks) / tickPerUs);
    }
    return out.empty() ? "(no tail captures)" : out;
}

const char *
rank1(const TailProfiler &prof)
{
    const auto ranked = prof.rankedTail();
    if (ranked.empty() || ranked.front().second == 0)
        return "(none)";
    return attribCompName(ranked.front().first);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);
    const double rps = args.cfg.getDouble("rps", 12000.0);
    const double slow_factor =
        args.cfg.getDouble("slow_factor", 8.0);
    args.cfg.rejectUnread();

    banner("Fig tail-attrib",
           "tail-latency attribution and bottleneck localisation");

    // ---- Part 1: machine contrast under the social network ----
    const ServiceCatalog social = buildSocialNetwork();
    const std::vector<std::pair<std::string, MachineParams>>
        machines = {
            {"uManycore", uManycoreParams()},
            {"ScaleOut", scaleOutParams()},
        };

    struct PointResult
    {
        RunMetrics metrics;
        AttribResult attrib;
    };

    SweepRunner runner(args.jobs);
    const std::vector<PointResult> runs =
        runner.map<PointResult>(machines.size(), [&](std::size_t i) {
            const auto &[name, mp] = machines[i];
            std::fprintf(stderr, "running %s...\n", name.c_str());
            ExperimentConfig cfg =
                evalConfig(mp, rps, args, ArrivalKind::Bursty);
            cfg.obs = obsForPoint(args.obs, i, machines.size());
            PointResult r;
            r.metrics = runExperiment(social, cfg, nullptr,
                                      &r.attrib);
            return r;
        });

    for (std::size_t i = 0; i < machines.size(); ++i) {
        const PointResult &r = runs[i];
        std::printf("== %s @ %.0f RPS/server ==\n",
                    machines[i].first.c_str(), rps);
        std::printf("P99 %.3f ms, roots %llu, ledger mismatches "
                    "%llu\n",
                    r.metrics.overall.p99Ms,
                    static_cast<unsigned long long>(r.attrib.roots),
                    static_cast<unsigned long long>(
                        r.attrib.ledgerMismatches));
        std::printf("tail components: %s\n\n",
                    rankedLine(r.attrib.profiler).c_str());
    }

    Table t({"machine", "P99 (ms)", "rank-1 tail component"});
    for (std::size_t i = 0; i < machines.size(); ++i) {
        t.addRow({machines[i].first,
                  Table::num(runs[i].metrics.overall.p99Ms, 3),
                  rank1(runs[i].attrib.profiler)});
    }
    std::printf("%s\n", t.format().c_str());

    // ---- Part 2: injected bottleneck in the fan-out tree ----
    std::printf("Bottleneck localisation (uManycore, fan-out "
                "tree, Leaf2 slowed %gx):\n\n",
                slow_factor);

    const std::vector<std::pair<std::string, FanoutParams>> cases =
        [&] {
            FanoutParams base;
            FanoutParams slowed;
            slowed.slowLeaf = 2;
            slowed.slowFactor = slow_factor;
            return std::vector<std::pair<std::string, FanoutParams>>{
                {"baseline", base}, {"Leaf2 slowed", slowed}};
        }();

    const std::vector<PointResult> fan =
        runner.map<PointResult>(cases.size(), [&](std::size_t i) {
            std::fprintf(stderr, "running fan-out %s...\n",
                         cases[i].first.c_str());
            const ServiceCatalog cat =
                buildSyntheticFanout(cases[i].second);
            ExperimentConfig cfg =
                evalConfig(uManycoreParams(), rps / 2.0, args,
                           ArrivalKind::Poisson);
            cfg.obs = ObsConfig{}; // artifacts belong to part 1
            cfg.obs.attrib = true;
            PointResult r;
            r.metrics = runExperiment(cat, cfg, nullptr, &r.attrib);
            return r;
        });

    Table f({"case", "P99 (ms)", "rank-1 tail component",
             "tail components"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        f.addRow({cases[i].first,
                  Table::num(fan[i].metrics.overall.p99Ms, 3),
                  rank1(fan[i].attrib.profiler),
                  rankedLine(fan[i].attrib.profiler)});
    }
    std::printf("%s\n", f.format().c_str());
    return 0;
}
