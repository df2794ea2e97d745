/**
 * @file
 * Benchmark harness: one measurement per invocation, reported as one
 * JSON line on stdout. run.py generates the workload configuration,
 * drives this program, checks its outputs and aggregates the figures;
 * see README.md for the workloads and metrics.
 *
 *   perfbench_harness setup  <cfg> reps=K
 *       Host time to build the catalog plus the ClusterSim/RackSim,
 *       K times, and the peak resident memory of doing so.
 *   perfbench_harness run    <cfg>
 *       One untraced call of the public runner (runExperiment, or
 *       runRackExperiment when packages > 1).
 *   perfbench_harness trace  <cfg> batch=B
 *       The benchmark's own copy of the runner's event loop with a
 *       SimProfiler of batch B attached (B = 1 gives true per-source
 *       self time); simulates the same program as `run`, which the
 *       digest proves.
 *   perfbench_harness kernel events=N width=W seed=S
 *       The bare EventQueue schedule/run loop with trivial callbacks.
 *   perfbench_harness calib events=N
 *       The host-speed calibration loop (see CalibLoop).
 *
 * <cfg> is machine=serverclass|umanycore servers=N rps=R seed=S
 * warmup_ms=W measure_ms=M packages=P replica=rr|po2c|jsqd
 * net=rdma|nanopu attrib=0|1 sample_us=U.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/metrics.hh"
#include "obs/attrib.hh"
#include "obs/json.hh"
#include "obs/simprof.hh"
#include "rack/rack_experiment.hh"
#include "rack/rack_sampler.hh"
#include "rack/rack_sim.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "stats/stats_dump.hh"
#include "validate/invariants.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace umany;

namespace
{

using HostClock = std::chrono::steady_clock;

double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0)
        .count();
}

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return "address";
#elif __has_feature(thread_sanitizer)
    return "thread";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

/** Build provenance: run.py refuses end-to-end numbers unless the
 *  build is optimized, unsanitized and free of invariant hooks. */
std::string
buildJson()
{
    JsonWriter w;
    w.beginObject();
    w.key("type").value(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
    w.key("ndebug").value(true);
#else
    w.key("ndebug").value(false);
#endif
    w.key("sanitizer").value(sanitizerName());
    w.key("invariants").value(UMANY_INVARIANTS_ENABLED != 0);
    w.endObject();
    return w.str();
}

/**
 * Peak resident set of this process image in MB (VmHWM). Unlike
 * getrusage's ru_maxrss, it starts afresh at exec, so the parent that
 * forked the harness does not leak into it.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        fatal("cannot read /proc/self/status");
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    if (kb < 0.0)
        fatal("VmHWM missing from /proc/self/status");
    return kb / 1024.0;
}

/** FNV-1a over every stat's name and exact value. */
std::string
statsDigest(const StatsDump &stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (const StatEntry &e : stats.entries()) {
        mix(e.name);
        mix(strprintf("=%.17g;", e.value));
    }
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

/** The workload as the runners see it. */
RackExperimentConfig
workloadFrom(const Config &c)
{
    RackExperimentConfig cfg;
    ExperimentConfig &base = cfg.base;
    const std::string machine = c.getString("machine");
    if (machine == "serverclass")
        base.machine = serverClassParams();
    else if (machine == "umanycore")
        base.machine = uManycoreParams();
    else
        fatal("machine must be serverclass or umanycore (got '%s')",
              machine.c_str());
    const std::int64_t servers = c.getInt("servers");
    const std::int64_t packages = c.getInt("packages", 1);
    if (servers < 1 || packages < 1)
        fatal("servers and packages must be >= 1");
    base.cluster.numServers = static_cast<std::uint32_t>(servers);
    base.rpsPerServer = c.getDouble("rps");
    base.arrivals = ArrivalKind::Bursty;
    base.warmup = fromMs(c.getDouble("warmup_ms"));
    base.measure = fromMs(c.getDouble("measure_ms"));
    base.seed = static_cast<std::uint64_t>(c.getInt("seed"));
    base.obs.attrib = c.getBool("attrib", false);
    base.obs.sampleInterval = fromUs(c.getDouble("sample_us", 0.0));
    cfg.rack.packages = static_cast<std::uint32_t>(packages);
    // The traced loop mirrors only the rack-scale sampler.
    if (packages == 1 && base.obs.sampleInterval > 0)
        fatal("sample_us needs packages > 1");
    cfg.rack.replica.kind =
        parseDispatchKind(c.getString("replica", "rr"));
    cfg.rack.net = parseRackNetKind(c.getString("net", "rdma"));
    return cfg;
}

bool
isRack(const RackExperimentConfig &cfg)
{
    return cfg.rack.packages > 1;
}

RackSimParams
rackParams(const RackExperimentConfig &cfg)
{
    RackSimParams rp = cfg.rack;
    rp.cluster = cfg.base.cluster;
    return rp;
}

double
statSum(const StatsDump &stats, const std::string &suffix)
{
    double sum = 0.0;
    for (const StatEntry &e : stats.entries()) {
        if (e.name.size() >= suffix.size() &&
            e.name.compare(e.name.size() - suffix.size(),
                           suffix.size(), suffix) == 0) {
            sum += e.value;
        }
    }
    return sum;
}

/** Output-check values shared by `run` and `trace`. */
void
writeCheck(JsonWriter &w, const StatsDump &stats,
           const RunMetrics &m, bool rack)
{
    w.key("digest").value(statsDigest(stats));
    // Every package shares one EventQueue, so package 0's count is
    // the rack's.
    w.key("events").value(
        stats.value(rack ? "pkg0.sim.events" : "sim.events"));
    w.key("observed").value(m.observed);
    w.key("completed").value(m.completed);
    w.key("rejected").value(m.rejected);
    w.key("in_flight").value(
        statSum(stats, "cluster.requests.in_flight"));
    w.key("sim_p99_ms").value(m.overall.p99Ms);
    w.key("sim_throughput_rps").value(m.throughputRps);
}

int
cmdSetup(const Config &c)
{
    const RackExperimentConfig cfg = workloadFrom(c);
    const std::int64_t reps = c.getInt("reps");
    if (reps < 1)
        fatal("reps must be >= 1");
    std::vector<double> times;
    for (std::int64_t r = 0; r < reps; ++r) {
        const HostClock::time_point t0 = HostClock::now();
        const ServiceCatalog catalog = buildSocialNetwork();
        EventQueue eq;
        std::unique_ptr<RackSim> rack;
        std::unique_ptr<ClusterSim> sim;
        if (isRack(cfg)) {
            rack = std::make_unique<RackSim>(
                eq, catalog, std::vector<MachineParams>{cfg.base.machine},
                rackParams(cfg));
        } else {
            sim = std::make_unique<ClusterSim>(eq, catalog,
                                               cfg.base.machine,
                                               cfg.base.cluster);
        }
        // Teardown is not set-up: the clock stops before it.
        times.push_back(secondsSince(t0));
    }
    JsonWriter w;
    w.beginObject();
    w.key("build").raw(buildJson());
    w.key("peak_rss_mb").value(peakRssMb());
    w.key("setup_s").beginArray();
    for (const double t : times)
        w.value(t);
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
cmdRun(const Config &c)
{
    RackExperimentConfig cfg = workloadFrom(c);
    const ServiceCatalog catalog = buildSocialNetwork();
    const bool rack = isRack(cfg);
    StatsDump stats;
    AttribResult attrib;
    AttribResult *attrib_out = cfg.base.obs.attrib ? &attrib : nullptr;

    const HostClock::time_point t0 = HostClock::now();
    const RunMetrics m =
        rack ? runRackExperiment(catalog, cfg, &stats, attrib_out)
             : runExperiment(catalog, cfg.base, &stats, attrib_out);
    const double wall = secondsSince(t0);

    JsonWriter w;
    w.beginObject();
    w.key("build").raw(buildJson());
    w.key("wall_s").value(wall);
    w.key("peak_rss_mb").value(peakRssMb());
    writeCheck(w, stats, m, rack);
    w.key("attrib").value(attrib.enabled);
    w.key("ledger_mismatches").value(attrib.ledgerMismatches);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

/**
 * The runner's event loop, copied so a batch-B SimProfiler can be
 * attached around exactly the simulated run: same construction
 * order, same load generator, same warmup flip, same drain limit.
 * Observers mirror the runner's: the attribution registry and the
 * rack sampler when the config turns them on.
 */
int
cmdTrace(const Config &c)
{
    const RackExperimentConfig cfg = workloadFrom(c);
    const ExperimentConfig &base = cfg.base;
    const std::int64_t batch = c.getInt("batch");
    if (batch < 1)
        fatal("batch must be >= 1");
    const bool rack = isRack(cfg);
    const ServiceCatalog catalog = buildSocialNetwork();

    // Package construction alone (the arch layer), timed outside the
    // simulated run; for a single package the run's own build is it.
    double arch_setup = 0.0;
    if (rack) {
        EventQueue eq0;
        const HostClock::time_point a0 = HostClock::now();
        ClusterSim one(eq0, catalog, base.machine, base.cluster);
        arch_setup = secondsSince(a0);
    }

    const HostClock::time_point t0 = HostClock::now();
    std::unique_ptr<AttribRegistry> attrib;
    std::unique_ptr<ScopedAttrib> attribScope;
    if (base.obs.attrib) {
        attrib = std::make_unique<AttribRegistry>();
        attrib->setTopK(base.obs.tailTopK);
        attribScope = std::make_unique<ScopedAttrib>(attrib.get());
    }

    EventQueue eq;
    const HostClock::time_point s0 = HostClock::now();
    std::unique_ptr<RackSim> rs;
    std::unique_ptr<ClusterSim> cs;
    if (rack) {
        rs = std::make_unique<RackSim>(
            eq, catalog, std::vector<MachineParams>{base.machine},
            rackParams(cfg));
    } else {
        cs = std::make_unique<ClusterSim>(eq, catalog, base.machine,
                                          base.cluster);
    }
    const double sim_setup = secondsSince(s0);
    if (!rack)
        arch_setup = sim_setup;

    std::vector<ClusterSim *> pkgs;
    if (rack) {
        for (std::uint32_t p = 0; p < rs->numPackages(); ++p)
            pkgs.push_back(&rs->package(p));
    } else {
        pkgs.push_back(cs.get());
    }
    const std::uint16_t ext_part =
        static_cast<std::uint16_t>(pkgs[0]->machine(0).numClusters());

    std::unique_ptr<RackSampler> sampler;
    if (rack && base.obs.sampleInterval > 0) {
        sampler = std::make_unique<RackSampler>(
            eq, *rs, base.obs.sampleInterval);
        sampler->start(base.warmup + base.measure);
    }

    LoadGenParams lp;
    lp.rps = base.rpsPerServer *
             static_cast<double>(base.cluster.numServers) *
             static_cast<double>(cfg.rack.packages);
    lp.kind = base.arrivals;
    lp.start = 0;
    lp.stop = base.warmup + base.measure;
    lp.seed = base.seed;
    lp.partition = ext_part;
    if (rack)
        lp.streams = cfg.rack.packages;
    RackSim *rsp = rs.get();
    ClusterSim *csp = cs.get();
    LoadGenerator gen(eq, catalog, lp, [rsp, csp](ServiceId ep) {
        if (rsp != nullptr)
            rsp->submitRoot(ep);
        else
            csp->submitRoot(ep);
    });
    gen.start();
    auto setRecording = [rsp, csp](bool on) {
        if (rsp != nullptr)
            rsp->setRecording(on);
        else
            csp->setRecording(on);
    };
    setRecording(false);
    eq.schedule(base.warmup, EvTag{EvSrc::Kernel, ext_part},
                [setRecording]() { setRecording(true); });

    SimProfiler prof(static_cast<std::uint32_t>(batch));
    const HostClock::time_point l0 = HostClock::now();
    eq.setProfiler(&prof);
    const bool drained =
        eq.runUntil(base.warmup + base.measure + base.drainLimit);
    eq.setProfiler(nullptr);
    prof.finalize();
    const double loop = secondsSince(l0);

    const HostClock::time_point c0 = HostClock::now();
    const StatsDump stats = rack ? collectRackStats(*rs)
                                 : collectStats(*cs);
    const RunMetrics m =
        rack ? collectRackMetrics(*rs, catalog, base.measure,
                                  base.rpsPerServer)
             : collectMetrics(*cs, catalog, base.measure,
                              base.rpsPerServer);
    const double collect = secondsSince(c0);
    const double wall = secondsSince(t0);

    // Simulated per-layer aggregates over every server of every
    // package.
    std::uint64_t noc_msgs = 0;
    double link_max = 0.0;
    double disp_util = 0.0;
    double core_util = 0.0;
    std::uint32_t servers = 0;
    Summary queued;
    for (ClusterSim *p : pkgs) {
        queued.merge(p->queuedTimeUs());
        for (ServerId s = 0; s < p->numServers(); ++s) {
            Machine &mc = p->machine(s);
            noc_msgs += mc.network().messagesDelivered();
            link_max =
                std::max(link_max, mc.network().maxLinkUtilization());
            disp_util += mc.dispatcherUtilization();
            core_util += mc.avgCoreUtilization();
            ++servers;
        }
    }

    JsonWriter w;
    w.beginObject();
    w.key("build").raw(buildJson());
    w.key("batch").value(static_cast<std::uint64_t>(batch));
    w.key("wall_s").value(wall);
    w.key("loop_s").value(loop);
    w.key("collect_s").value(collect);
    w.key("arch_setup_s").value(arch_setup);
    w.key("rack_setup_s").value(rack ? sim_setup : 0.0);
    w.key("drained").value(drained);
    writeCheck(w, stats, m, rack);
    w.key("ledger_mismatches")
        .value(attrib ? attrib->ledgerMismatches() : 0);
    w.key("profiled_events").value(prof.totalEvents());
    w.key("profiled_ns").value(prof.totalHostNs());
    w.key("queue_depth_p99").value(prof.occupancyHist().p99());
    w.key("src_events").beginObject();
    for (std::size_t s = 0; s < kNumEvSrcs; ++s)
        w.key(evSrcName(static_cast<EvSrc>(s)))
            .value(prof.events(static_cast<EvSrc>(s)));
    w.endObject();
    w.key("src_ns").beginObject();
    for (std::size_t s = 0; s < kNumEvSrcs; ++s)
        w.key(evSrcName(static_cast<EvSrc>(s)))
            .value(prof.hostNs(static_cast<EvSrc>(s)));
    w.endObject();
    w.key("noc_messages").value(noc_msgs);
    w.key("link_util_max").value(link_max);
    w.key("dispatcher_util").value(disp_util / servers);
    w.key("cpu_utilization").value(core_util / servers);
    w.key("queued_us").value(queued.mean());
    w.key("lb_probes").value(rack ? rs->policyProbes() : 0);
    w.key("rack_net_messages").value(rack ? rs->net().messages() : 0);
    w.key("rack_hop_avg_us")
        .value(rack && rs->pkgHopTicks().count() > 0
                   ? rs->pkgHopTicks().mean() / tickPerUs
                   : 0.0);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

/**
 * The host-speed calibration loop: a fixed discrete-event loop written
 * here rather than taken from src/, so no change to the simulator can
 * move it. It has the simulator kernel's shape (a binary heap of timed
 * events, type-erased callbacks that reschedule themselves, a few
 * hundred pending events); run.py runs it between runner calls and
 * divides the host's momentary speed out of the end-to-end times.
 */
class CalibLoop
{
  public:
    void
    schedule(std::uint64_t delay, std::function<void()> fn)
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(std::move(fn));
        } else {
            slot = free_.back();
            free_.pop_back();
            slab_[slot] = std::move(fn);
        }
        heap_.push(Node{now_ + delay, seq_++, slot});
    }

    void
    run()
    {
        while (!heap_.empty()) {
            const Node top = heap_.top();
            heap_.pop();
            now_ = top.when;
            std::function<void()> fn = std::move(slab_[top.slot]);
            free_.push_back(top.slot);
            fn();
        }
    }

  private:
    struct Node
    {
        std::uint64_t when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator>(const Node &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Node, std::vector<Node>, std::greater<Node>>
        heap_;
    std::vector<std::function<void()>> slab_;
    std::vector<std::uint32_t> free_;
    std::uint64_t now_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * A self-rescheduling event chain with empty work: what it measures is
 * the loop's own schedule + pop + dispatch cost.
 */
template <typename Loop>
struct Chain
{
    Loop *loop;
    std::uint64_t *left;
    std::uint64_t rng;

    void
    fire()
    {
        if (*left == 0)
            return;
        --*left;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const std::uint64_t delay = 1 + (rng & 4095);
        if constexpr (std::is_same_v<Loop, EventQueue>)
            loop->scheduleAfter(delay, EvTag{}, [this]() { fire(); });
        else
            loop->schedule(delay, [this]() { fire(); });
    }
};

/** Host ns per event of @p width chains running @p events events in
 *  total on @p loop. */
template <typename Loop>
double
chainNsPerEvent(Loop &loop, std::uint64_t events, std::size_t width,
                std::uint64_t seed)
{
    std::uint64_t left = events;
    std::vector<Chain<Loop>> chains;
    chains.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
        chains.push_back(Chain<Loop>{
            &loop, &left, (seed + i) * 0x9e3779b97f4a7c15ull | 1});
    }
    for (Chain<Loop> &k : chains)
        k.fire();
    const HostClock::time_point t0 = HostClock::now();
    loop.run();
    return secondsSince(t0) * 1e9 / static_cast<double>(events);
}

int
printNsPerEvent(double ns)
{
    JsonWriter w;
    w.beginObject();
    w.key("build").raw(buildJson());
    w.key("ns_per_event").value(ns);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
cmdKernel(const Config &c)
{
    const std::int64_t events = c.getInt("events");
    const std::int64_t width = c.getInt("width");
    if (events < 1 || width < 1)
        fatal("events and width must be >= 1");
    EventQueue eq;
    return printNsPerEvent(chainNsPerEvent(
        eq, static_cast<std::uint64_t>(events),
        static_cast<std::size_t>(width),
        static_cast<std::uint64_t>(c.getInt("seed"))));
}

int
cmdCalib(const Config &c)
{
    const std::int64_t events = c.getInt("events");
    if (events < 1)
        fatal("events must be >= 1");
    CalibLoop loop;
    return printNsPerEvent(
        chainNsPerEvent(loop, static_cast<std::uint64_t>(events), 600, 1));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s setup|run|trace|kernel|calib "
                     "key=value...\n",
                     argv[0]);
        return 2;
    }
    setInformEnabled(false);
    const std::string cmd = argv[1];
    Config c;
    // parseArgs skips its argv[0], here the command word.
    c.parseArgs(argc - 1, argv + 1);
    if (cmd == "setup")
        return cmdSetup(c);
    if (cmd == "run")
        return cmdRun(c);
    if (cmd == "trace")
        return cmdTrace(c);
    if (cmd == "kernel")
        return cmdKernel(c);
    if (cmd == "calib")
        return cmdCalib(c);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}
