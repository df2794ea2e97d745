/**
 * @file
 * Perf-trajectory gate: compare the current BENCH_perf.json against
 * a committed baseline and fail when a gated metric regressed beyond
 * the noise threshold.
 *
 * Usage:
 *   perf_trend --baseline=PATH --current=PATH [--threshold=0.35]
 *   perf_trend --self-test=1
 *
 * Exit codes: 0 ok, 1 regression, 2 usage/IO/parse error. CI runs
 * this warn-only (continue-on-error) until runner noise is
 * characterized; the exit code is still the machine-readable signal.
 *
 * --self-test exercises the comparison logic on synthetic documents
 * (identical pair passes, injected slowdown fails) so the gate
 * itself is covered by tier-1 ctest without real timing noise.
 */

#include <cstdio>
#include <string>

#include "driver/perf_trend.hh"
#include "sim/config.hh"

using namespace umany;

namespace
{

/** Slurp a whole file; empty optional-style: ok=false on error. */
bool
readTextFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char buf[65536];
    std::size_t n = 0;
    out.clear();
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

/** A minimal but schema-valid perf document for --self-test. */
std::string
syntheticDoc(double kernel_scale, double wall_scale)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"schema\":\"umany-perf-smoke-v1\","
        "\"host\":{\"hardware_concurrency\":8},"
        "\"kernel\":{"
        "\"fifo_64k\":{\"events_per_sec\":%.1f,"
        "\"allocs_per_event\":0.0},"
        "\"random_64k\":{\"events_per_sec\":%.1f,"
        "\"allocs_per_event\":0.0},"
        "\"chain_100k\":{\"events_per_sec\":%.1f,"
        "\"allocs_per_event\":0.0}},"
        "\"fig14_small\":{\"wall_ms\":%.2f,\"sim_events\":37000,"
        "\"events_per_sec\":%.1f,\"throughput_rps\":6400.0,"
        "\"p99_ms\":5.5},"
        "\"sweep\":{\"points\":4,\"jobs\":8,\"wall_ms_jobs1\":20.0,"
        "\"wall_ms_jobsN\":6.0,\"speedup\":3.3}}",
        8.0e6 * kernel_scale, 8.1e6 * kernel_scale,
        4.5e7 * kernel_scale, 5.0 * wall_scale,
        7.5e6 * kernel_scale);
    return buf;
}

int
selfTest(double threshold)
{
    int failures = 0;
    const auto expect = [&failures](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "self-test FAILED: %s\n", what);
            ++failures;
        }
    };

    const std::string base = syntheticDoc(1.0, 1.0);

    PerfTrendResult same = comparePerf(base, base, threshold);
    expect(same.error.empty(), "identical docs parse");
    expect(!same.regressed, "identical docs do not regress");

    // Kernel 2x slower: well past any sane threshold.
    PerfTrendResult slow =
        comparePerf(base, syntheticDoc(0.5, 1.0), threshold);
    expect(slow.regressed, "2x kernel slowdown regresses");

    // Kernel 2x faster: improvement must never gate.
    PerfTrendResult fast =
        comparePerf(base, syntheticDoc(2.0, 1.0), threshold);
    expect(!fast.regressed, "2x kernel speedup passes");

    // Wall time 3x up (lower-is-better direction).
    PerfTrendResult wall =
        comparePerf(base, syntheticDoc(1.0, 3.0), threshold);
    expect(wall.regressed, "3x fig14 wall-time growth regresses");

    // Inside the noise band: no regression.
    PerfTrendResult noise = comparePerf(
        base, syntheticDoc(1.0 - threshold / 2.0, 1.0), threshold);
    expect(!noise.regressed, "sub-threshold drift passes");

    // Garbage input: error, not a crash or a pass.
    PerfTrendResult bad = comparePerf(base, "{not json", threshold);
    expect(!bad.error.empty(), "malformed current reports an error");

    std::printf("perf_trend self-test: %s\n",
                failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const double threshold = cfg.getDouble("threshold", 0.35);
    if (threshold <= 0.0 || threshold >= 1.0) {
        std::fprintf(stderr,
                     "threshold must be in (0, 1), got %g\n",
                     threshold);
        return 2;
    }
    const bool self_test = cfg.getBool("self_test", false);
    const std::string basePath = cfg.getString("baseline", "");
    const std::string curPath = cfg.getString("current", "");
    cfg.rejectUnread();
    if (self_test)
        return selfTest(threshold);

    if (basePath.empty() || curPath.empty()) {
        std::fprintf(stderr,
                     "usage: perf_trend --baseline=PATH "
                     "--current=PATH [--threshold=0.35]\n");
        return 2;
    }
    std::string baseJson;
    std::string curJson;
    if (!readTextFile(basePath, baseJson)) {
        std::fprintf(stderr, "cannot read baseline '%s'\n",
                     basePath.c_str());
        return 2;
    }
    if (!readTextFile(curPath, curJson)) {
        std::fprintf(stderr, "cannot read current '%s'\n",
                     curPath.c_str());
        return 2;
    }

    const PerfTrendResult r =
        comparePerf(baseJson, curJson, threshold);
    std::printf("%s", perfTrendTable(r).c_str());
    if (!r.error.empty())
        return 2;
    if (r.regressed) {
        std::printf("\nperf_trend: REGRESSION beyond %.0f%% noise "
                    "threshold\n", threshold * 100.0);
        return 1;
    }
    std::printf("\nperf_trend: ok (threshold %.0f%%)\n",
                threshold * 100.0);
    return 0;
}
