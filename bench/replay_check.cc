/**
 * @file
 * Deterministic-replay check (ISSUE 3 tentpole, part 3): runs the
 * same experiment twice with the same seed and diffs the complete
 * machine-readable output (metrics JSON + stats JSON); then runs a
 * four-point sweep through SweepRunner with --jobs=1 and --jobs=4
 * and requires the per-point artifacts to be identical, proving
 * that the parallel sweep runner does not perturb results.
 *
 * Usage:
 *   replay_check [machine=uManycore|ScaleOut|ServerClass]
 *                [rps=N] [servers=N] [measure_ms=N] [seed=N]
 *                [dispatch=rr|po2c|jsqd|steal|slo]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

/** The full deterministic artifact of one run. */
std::string
runArtifact(const ServiceCatalog &catalog,
            const ExperimentConfig &cfg)
{
    StatsDump stats;
    const RunMetrics m = runExperiment(catalog, cfg, &stats);
    return metricsJson(m) + "\n" + stats.formatJson();
}

int
diffReport(const std::string &what, const std::string &a,
           const std::string &b)
{
    if (a == b) {
        std::fprintf(stderr, "  %s: identical (%zu bytes)\n",
                     what.c_str(), a.size());
        return 0;
    }
    std::fprintf(stderr, "  %s: MISMATCH (%zu vs %zu bytes)\n",
                 what.c_str(), a.size(), b.size());
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    const std::size_t from = i > 40 ? i - 40 : 0;
    std::fprintf(stderr, "    first divergence at byte %zu\n", i);
    std::fprintf(stderr, "    a: ...%.80s\n",
                 a.substr(from).c_str());
    std::fprintf(stderr, "    b: ...%.80s\n",
                 b.substr(from).c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    setInformEnabled(false);

    const std::string machineName =
        cfg.getString("machine", "uManycore");
    MachineParams mp;
    if (machineName == "uManycore")
        mp = uManycoreParams();
    else if (machineName == "ScaleOut")
        mp = scaleOutParams();
    else if (machineName == "ServerClass")
        mp = serverClassParams();
    else
        fatal("unknown machine '%s'", machineName.c_str());

    ExperimentConfig base;
    base.machine = mp;
    base.cluster.numServers = static_cast<std::uint32_t>(
        cfg.getInt("servers", 2));
    base.rpsPerServer = cfg.getDouble("rps", 5000.0);
    base.arrivals = ArrivalKind::Bursty;
    base.warmup = fromMs(5.0);
    base.measure = fromMs(cfg.getDouble("measure_ms", 40.0));
    base.seed = static_cast<std::uint64_t>(
        cfg.getInt("seed", 0x5eedll));
    base.machine.dispatch.kind =
        parseDispatchKind(cfg.getString("dispatch", "rr"));
    cfg.rejectUnread();

    const ServiceCatalog catalog = buildSocialNetwork();
    int failures = 0;

    // Part 1: same seed, back to back, in one process (catches
    // leaked global state between runs).
    std::fprintf(stderr, "replay: %s twice with seed %llu...\n",
                 machineName.c_str(),
                 static_cast<unsigned long long>(base.seed));
    const std::string first = runArtifact(catalog, base);
    const std::string second = runArtifact(catalog, base);
    failures += diffReport("sequential replay", first, second);

    // Different seed must actually change the artifact — otherwise
    // the comparison above proves nothing.
    ExperimentConfig reseeded = base;
    reseeded.seed = base.seed + 1;
    const std::string other = runArtifact(catalog, reseeded);
    if (other == first) {
        std::fprintf(stderr,
                     "  seed sensitivity: MISMATCH (seed %llu and "
                     "%llu gave identical artifacts)\n",
                     static_cast<unsigned long long>(base.seed),
                     static_cast<unsigned long long>(reseeded.seed));
        ++failures;
    } else {
        std::fprintf(stderr, "  seed sensitivity: ok\n");
    }

    // Part 2: the same four points through the sweep runner with 1
    // and 4 worker threads; per-point artifacts must match exactly.
    const std::vector<double> loads = {2000.0, 4000.0, 6000.0,
                                       8000.0};
    auto sweep = [&](unsigned jobs) {
        SweepRunner runner(jobs);
        return runner.map<std::string>(
            loads.size(), [&](std::size_t i) {
                ExperimentConfig pt = base;
                pt.rpsPerServer = loads[i];
                return runArtifact(catalog, pt);
            });
    };
    std::fprintf(stderr, "replay: 4-point sweep jobs=1 vs jobs=4...\n");
    const std::vector<std::string> seq = sweep(1);
    const std::vector<std::string> par = sweep(4);
    for (std::size_t i = 0; i < loads.size(); ++i) {
        failures += diffReport(
            "sweep point " + std::to_string(i) + " (rps=" +
                std::to_string(static_cast<int>(loads[i])) + ")",
            seq[i], par[i]);
    }

    if (failures != 0) {
        std::fprintf(stderr, "%d replay check(s) failed\n", failures);
        return 1;
    }
    std::printf("replay checks passed: runs are deterministic and "
                "jobs-count independent\n");
    return 0;
}
