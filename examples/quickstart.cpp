/**
 * @file
 * Quickstart: build a 1024-core μManycore cluster, drive it with the
 * social-network workload at 10K RPS per server, and print latency
 * and throughput statistics.
 *
 * Usage: quickstart [rps=10000] [servers=4] [seed=1] [machine=um]
 *                   [app=social|media] [arrivals=bursty|poisson]
 *                   [--dispatch=rr|po2c|jsqd|steal|slo]
 *                   [--trace-out=run.trace.json]
 *                   [--stats-json=run.json]
 *                   [--sample-interval-us=50]
 *   machine: um (μManycore) | so (ScaleOut) | sc (ServerClass)
 *
 * With --trace-out the run emits a Chrome trace_event file: open it
 * at https://ui.perfetto.dev (or chrome://tracing) to see every
 * request's lifecycle as spans across villages, cores, and the NoC.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "sched/dispatch_policy.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "stats/stats_dump.hh"
#include "stats/table.hh"
#include "workload/app_graph.hh"
#include "workload/media_graph.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const double rps = cfg.getDouble("rps", 10000.0);
    const std::string kind = cfg.getString("machine", "um");

    ExperimentConfig exp;
    if (kind == "um")
        exp.machine = uManycoreParams();
    else if (kind == "so")
        exp.machine = scaleOutParams();
    else if (kind == "sc")
        exp.machine = serverClassParams();
    else
        fatal("unknown machine '%s' (um|so|sc)", kind.c_str());

    exp.cluster.numServers = static_cast<std::uint32_t>(
        cfg.getInt("servers", 4));
    exp.rpsPerServer = rps;
    exp.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    exp.warmup = fromMs(40.0);
    exp.measure = fromMs(400.0);
    if (cfg.getString("arrivals", "bursty") == "bursty")
        exp.arrivals = ArrivalKind::Bursty;
    exp.machine.dispatch =
        dispatchParamsFromConfig(cfg, exp.machine.dispatch);
    exp.obs.traceOut = cfg.getString("trace_out", "");
    exp.obs.statsJson = cfg.getString("stats_json", "");
    const double sample_us =
        cfg.getDouble("sample_interval_us", 0.0);
    if (sample_us < 0.0)
        fatal("sample_interval_us must be >= 0 (got %g)", sample_us);
    exp.obs.sampleInterval = fromUs(sample_us);
    exp.obs.traceCapacity = static_cast<std::size_t>(cfg.getInt(
        "trace_capacity",
        static_cast<std::int64_t>(TraceSink::defaultCapacity)));
    exp.obs.traceFilter = cfg.getString("trace_filter", "");
    exp.obs.attrib = cfg.getBool("attrib", false);
    exp.obs.tailProfile = cfg.getString("tail_profile", "");
    exp.obs.metricsOut = cfg.getString("metrics_out", "");
    exp.obs.tailTopK = static_cast<std::size_t>(
        cfg.getInt("tail_topk", 32));
    exp.obs.simProfile = cfg.getString("sim_profile", "");
    // Bare "--progress" means "heartbeat at the default period".
    const std::string progress = cfg.getString("progress", "");
    if (progress == "true")
        exp.obs.progressSec = 5.0;
    else if (!progress.empty())
        exp.obs.progressSec = cfg.getDouble("progress");
    if (exp.obs.progressSec < 0.0)
        fatal("progress must be >= 0 (got %g)", exp.obs.progressSec);
    exp.obs.runSummary = cfg.getBool("run_summary", false);

    const ServiceCatalog catalog =
        cfg.getString("app", "social") == "media"
            ? buildMediaService()
            : buildSocialNetwork();
    const bool printDump = cfg.getBool("dump", false);
    cfg.rejectUnread();

    std::printf("machine=%s servers=%u rps/server=%.0f\n",
                exp.machine.name.c_str(), exp.cluster.numServers,
                rps);
    StatsDump dump;
    AttribResult attrib;
    const bool wantAttrib =
        exp.obs.attrib || !exp.obs.tailProfile.empty();
    const RunMetrics m = runExperiment(
        catalog, exp, &dump, wantAttrib ? &attrib : nullptr);

    Table t({"endpoint", "avg (ms)", "p50 (ms)", "p99 (ms)",
             "samples"});
    for (const auto &[app, s] : m.perEndpoint) {
        t.addRow({app, Table::num(s.avgMs, 3),
                  Table::num(s.p50Ms, 3), Table::num(s.p99Ms, 3),
                  std::to_string(s.samples)});
    }
    t.addRow({"ALL", Table::num(m.overall.avgMs, 3),
              Table::num(m.overall.p50Ms, 3),
              Table::num(m.overall.p99Ms, 3),
              std::to_string(m.overall.samples)});
    std::printf("%s", t.format().c_str());
    std::printf("throughput: %.0f RPS (offered %.0f/server), "
                "rejected: %llu\n",
                m.throughputRps, m.offeredRps,
                static_cast<unsigned long long>(m.rejected));
    std::printf("avg core utilization: %.1f%%, dispatcher: %.1f%%, "
                "ICN link util mean/max: %.2f/%.1f%%, "
                "ICN messages: %llu\n",
                100.0 * m.avgCoreUtilization,
                100.0 * m.dispatcherUtilization,
                100.0 * m.meanLinkUtilization,
                100.0 * m.maxLinkUtilization,
                static_cast<unsigned long long>(m.icnMessages));
    if (printDump)
        std::printf("\n---- stats dump ----\n%s", dump.format().c_str());
    if (!exp.obs.traceOut.empty()) {
        std::printf("trace written to %s (load it at "
                    "https://ui.perfetto.dev)\n",
                    exp.obs.traceOut.c_str());
    }
    if (!exp.obs.statsJson.empty())
        std::printf("run artifact written to %s\n",
                    exp.obs.statsJson.c_str());
    if (wantAttrib) {
        std::printf("\n%s",
                    attrib.profiler
                        .reportText([&catalog](ServiceId s) {
                            return catalog.at(s).name;
                        })
                        .c_str());
        if (!exp.obs.tailProfile.empty())
            std::printf("tail profile written to %s\n",
                        exp.obs.tailProfile.c_str());
    }
    if (!exp.obs.metricsOut.empty())
        std::printf("OpenMetrics dump written to %s\n",
                    exp.obs.metricsOut.c_str());
    return 0;
}
