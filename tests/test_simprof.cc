/**
 * @file
 * Tests for the simulator self-profiler: the event-source taxonomy,
 * per-source event/host-time accounting, the partitionability
 * analyzer (per-cluster counts, NoC traffic matrix, lookahead), the
 * emitted JSON report, and the overhead/neutrality guarantees of
 * attaching a profiler to the kernel.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "obs/json.hh"
#include "obs/simprof.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"

namespace umany
{
namespace
{

TEST(EvTaxonomy, NamesAreUniqueAndDefined)
{
    std::set<std::string> names;
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        const std::string n = evSrcName(static_cast<EvSrc>(s));
        EXPECT_NE(n, "invalid") << "source " << s;
        EXPECT_FALSE(n.empty());
        names.insert(n);
    }
    EXPECT_EQ(names.size(), kNumEvSrcs);
}

TEST(EvTaxonomy, TagsFitInTheHeapNodePadding)
{
    // The whole design rests on tags being free to carry: EvTag must
    // stay within the 4 bytes of padding of the 24-byte heap node.
    EXPECT_LE(sizeof(EvTag), 4u);
}

TEST(SimProfiler, CountsEventsBySourceTag)
{
    EventQueue eq;
    SimProfiler prof(4); // Small batch so partial batches flush too.
    eq.setProfiler(&prof);

    int ran = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, EvTag{EvSrc::LoadGen}, [&ran]() { ++ran; });
    for (int i = 0; i < 6; ++i) {
        eq.schedule(100 + i, EvTag{EvSrc::CoreRun},
                    [&ran]() { ++ran; });
    }
    for (int i = 0; i < 3; ++i)
        eq.schedule(200 + i, [&ran]() { ++ran; }); // Untagged.
    eq.run();
    eq.setProfiler(nullptr);
    prof.finalize();

    EXPECT_EQ(ran, 19);
    EXPECT_EQ(prof.totalEvents(), 19u);
    EXPECT_EQ(prof.events(EvSrc::LoadGen), 10u);
    EXPECT_EQ(prof.events(EvSrc::CoreRun), 6u);
    EXPECT_EQ(prof.events(EvSrc::Other), 3u);
    EXPECT_EQ(prof.events(EvSrc::Fault), 0u);
}

TEST(SimProfiler, HostTimeSharesSumToTotal)
{
    EventQueue eq;
    SimProfiler prof(8);
    eq.setProfiler(&prof);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) {
        eq.schedule(i, EvTag{i % 2 ? EvSrc::CoreRun : EvSrc::RpcNic},
                    [&sink]() {
                        for (int k = 0; k < 50; ++k)
                            sink = sink + k;
                    });
    }
    eq.run();
    eq.setProfiler(nullptr);
    prof.finalize();

    ASSERT_GT(prof.totalHostNs(), 0.0);
    double sum = 0.0;
    for (std::size_t s = 0; s < kNumEvSrcs; ++s)
        sum += prof.hostNs(static_cast<EvSrc>(s));
    // Every batch's delta is fully distributed, so the shares sum
    // exactly (up to floating-point accumulation) to the total.
    EXPECT_NEAR(sum / prof.totalHostNs(), 1.0, 1e-9);
}

TEST(SimProfiler, PartitionCountsAndTrafficMatrix)
{
    SimProfiler prof(4);
    // Partition-tagged executions: 5 on cluster 0, 3 on cluster 2,
    // 2 unpartitioned.
    for (int i = 0; i < 5; ++i)
        prof.onExecuted(EvTag{EvSrc::CoreRun, 0}, 1, 0);
    for (int i = 0; i < 3; ++i)
        prof.onExecuted(EvTag{EvSrc::CoreRun, 2}, 1, 0);
    for (int i = 0; i < 2; ++i)
        prof.onExecuted(EvTag{EvSrc::Kernel, evPartNone}, 1, 0);
    prof.finalize();

    ASSERT_GE(prof.partitionEvents().size(), 3u);
    EXPECT_EQ(prof.partitionEvents()[0], 5u);
    EXPECT_EQ(prof.partitionEvents()[1], 0u);
    EXPECT_EQ(prof.partitionEvents()[2], 3u);
    EXPECT_EQ(prof.unpartitionedEvents(), 2u);

    prof.noteNocSend(0, 1, 64);
    prof.noteNocSend(0, 1, 64);
    prof.noteNocSend(1, 0, 128);
    prof.noteNocSend(2, 2, 32);
    prof.noteNocDeliver(0, 1, 64);
    prof.noteNocSend(evPartNone, 1, 64); // Ignored: no partition.

    ASSERT_EQ(prof.matrixDim(), 3u);
    EXPECT_EQ(prof.sentMsgs(0, 1), 2u);
    EXPECT_EQ(prof.sentBytes(0, 1), 128u);
    EXPECT_EQ(prof.sentMsgs(1, 0), 1u);
    EXPECT_EQ(prof.sentMsgs(2, 2), 1u);
    EXPECT_EQ(prof.deliveredMsgs(0, 1), 1u);
    EXPECT_EQ(prof.totalSentMsgs(), 4u);
    EXPECT_EQ(prof.totalDeliveredMsgs(), 1u);
}

TEST(SimProfiler, TimelineStaysBoundedOnLongRuns)
{
    EventQueue eq;
    SimProfiler prof(1); // One flush per event: worst case.
    eq.setProfiler(&prof);
    struct Chain
    {
        EventQueue &eq;
        int left;
        void
        operator()()
        {
            if (--left > 0)
                eq.scheduleAfter(10, EvTag{EvSrc::LoadGen},
                                 Chain{eq, left});
        }
    };
    eq.schedule(0, EvTag{EvSrc::LoadGen},
                Chain{eq, 10 * static_cast<int>(
                              SimProfiler::maxTimelinePoints)});
    eq.run();
    eq.setProfiler(nullptr);
    prof.finalize();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(prof.toJson(), v, &err)) << err;
    const JsonValue *tl = v.find("timeline");
    ASSERT_NE(tl, nullptr);
    EXPECT_LE(tl->find("sim_us")->items.size(),
              SimProfiler::maxTimelinePoints);
    EXPECT_GT(tl->find("sim_us")->items.size(), 0u);
    EXPECT_EQ(tl->find("sim_us")->items.size(),
              tl->find("events")->items.size());
}

/** A small two-cluster machine that still exercises the full stack. */
MachineParams
smallMachine()
{
    MachineParams p = uManycoreParams();
    p.numCores = 64;
    p.coresPerVillage = 8;
    p.villagesPerCluster = 4;
    return p;
}

TEST(SimProfilerIntegration, MatrixReconcilesWithNetworkStats)
{
    const ServiceCatalog cat = buildSocialNetwork();
    EventQueue eq;
    SimProfiler prof;
    eq.setProfiler(&prof);
    ClusterSimParams cp;
    cp.numServers = 2;
    cp.seed = 42;
    ClusterSim sim(eq, cat, smallMachine(), cp);

    LoadGenParams lp;
    lp.rps = 4000.0;
    lp.stop = fromMs(20.0);
    lp.seed = 42;
    LoadGenerator gen(eq, cat, lp,
                      [&sim](ServiceId ep) { sim.submitRoot(ep); });
    gen.start();
    ASSERT_TRUE(eq.runUntil(fromSec(3.0)));
    eq.setProfiler(nullptr);
    prof.finalize();

    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    for (ServerId s = 0; s < sim.numServers(); ++s) {
        sent += sim.machine(s).network().messagesSent();
        delivered += sim.machine(s).network().messagesDelivered();
    }
    ASSERT_GT(sent, 0u);
    // Every endpoint has a partition (clusters plus the ext bucket),
    // so the matrix totals must reconcile exactly with the net.*
    // send/deliver counters summed across the fleet.
    EXPECT_EQ(prof.totalSentMsgs(), sent);
    EXPECT_EQ(prof.totalDeliveredMsgs(), delivered);

    std::uint64_t matrix_sent = 0;
    std::uint64_t matrix_delivered = 0;
    for (std::uint32_t i = 0; i < prof.matrixDim(); ++i) {
        for (std::uint32_t j = 0; j < prof.matrixDim(); ++j) {
            matrix_sent += prof.sentMsgs(i, j);
            matrix_delivered += prof.deliveredMsgs(i, j);
        }
    }
    EXPECT_EQ(matrix_sent, prof.totalSentMsgs());
    EXPECT_EQ(matrix_delivered, prof.totalDeliveredMsgs());

    // All executed events are tagged: no event should fall into the
    // unpartitioned bucket by accident -- untagged sources (Kernel,
    // LoadGen, inter-server transit) legitimately carry no cluster
    // affinity, but they must be the only contributors to Other.
    EXPECT_EQ(prof.totalEvents(), eq.dispatched());
    EXPECT_EQ(prof.events(EvSrc::Other), 0u)
        << "an event was scheduled without a source tag";
}

TEST(SimProfilerIntegration, Fig14SmallProfileReportValidates)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams(); // 1024 cores, 32 clusters.
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 5000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 0x5eed;
    cfg.obs.simProfile = "test_simprof_profile.json";

    StatsDump stats;
    runExperiment(cat, cfg, &stats);

    std::FILE *f = std::fopen(cfg.obs.simProfile.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(cfg.obs.simProfile.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    EXPECT_EQ(v.find("schema")->str, "umany.sim_profile.v1");

    const JsonValue *events = v.find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->find("total")->number, 0.0);
    double share_sum = 0.0;
    for (const JsonValue &src : events->find("per_source")->items)
        share_sum += src.find("host_share")->number;
    EXPECT_NEAR(share_sum, 1.0, 1e-6);

    const JsonValue *parts = v.find("partitions");
    ASSERT_NE(parts, nullptr);
    EXPECT_EQ(parts->find("clusters")->number, 32.0);
    ASSERT_EQ(parts->find("events_per_cluster")->items.size(), 32u);
    // The load is symmetric across clusters: every cluster must see
    // work (the balance report is the partitionability headline).
    for (const JsonValue &c :
         parts->find("events_per_cluster")->items) {
        EXPECT_GT(c.number, 0.0);
    }
    EXPECT_GE(parts->find("balance_max_over_mean")->number, 1.0);

    // Lookahead: cross-cluster messages need at least one hop, so
    // the conservative-DES bound must be positive.
    const JsonValue *la = parts->find("lookahead");
    ASSERT_NE(la, nullptr);
    EXPECT_GT(la->find("min_cross_cluster_ticks")->number, 0.0);

    // The matrix totals reconcile with the stats dump's net.*
    // counters (delivered messages summed across servers).
    double net_messages = 0.0;
    for (ServerId s = 0; s < 2; ++s) {
        net_messages +=
            stats.value(strprintf("server%u.net.messages", s));
    }
    const JsonValue *totals = parts->find("noc_totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->find("delivered_msgs")->number, net_messages);
    EXPECT_GT(totals->find("cross_partition_frac")->number, 0.0);

    const JsonValue *queue = v.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_GT(queue->find("occupancy")->find("count")->number, 0.0);
    EXPECT_GT(queue->find("horizon_ticks")->find("count")->number,
              0.0);
}

TEST(SimProfilerIntegration, ProfilingDoesNotPerturbResults)
{
    // The profiler observes and never schedules: metrics from a
    // profiled run must be bit-identical to an unprofiled one.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.machine = smallMachine();
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 2000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 99;

    const RunMetrics plain = runExperiment(cat, cfg);
    cfg.obs.simProfile = "test_simprof_neutrality.json";
    const RunMetrics profiled = runExperiment(cat, cfg);
    std::remove(cfg.obs.simProfile.c_str());

    EXPECT_EQ(plain.throughputRps, profiled.throughputRps);
    EXPECT_EQ(plain.overall.p99Ms, profiled.overall.p99Ms);
    EXPECT_EQ(plain.overall.avgMs, profiled.overall.avgMs);
}

TEST(SimProfilerIntegration, OverheadStaysSmall)
{
    // Pin the end-to-end cost of --sim-profile: batched clock reads
    // keep the target under 5% on an idle host; the assertion uses a
    // generous 25% bound so loaded CI runners do not flake, while
    // micro_event_queue reports the exact kernel-path numbers.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    // A window long enough that per-event cost dominates the fixed
    // report-emission cost (JSON + file write), which is what the
    // budget is about — emission is once per run.
    cfg.machine = smallMachine();
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 4000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(200.0);
    cfg.seed = 7;

    using clock = std::chrono::steady_clock;
    const auto timeRun = [&](const ExperimentConfig &c) {
        double best = 1e30;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = clock::now();
            runExperiment(cat, c);
            const double sec =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            best = std::min(best, sec);
        }
        return best;
    };

    runExperiment(cat, cfg); // Warm-up.
    const double off = timeRun(cfg);
    ExperimentConfig on = cfg;
    on.obs.simProfile = "test_simprof_overhead.json";
    const double with_prof = timeRun(on);
    std::remove(on.obs.simProfile.c_str());

    EXPECT_LT(with_prof, off * 1.25)
        << "sim-profile overhead " << (with_prof / off - 1.0) * 100.0
        << "%";
}

TEST(SimProfilerTags, UnknownPartitionFractionIsNearZero)
{
    // Every schedule site is tagged with a partition, so a fig14-class
    // run must leave (almost) nothing in the unpartitioned bucket:
    // untagged events would drop out of the --sim-profile
    // partitionability report's per-cluster counts.
    const ServiceCatalog cat = buildSocialNetwork();
    EventQueue eq;
    SimProfiler prof;
    eq.setProfiler(&prof);
    ClusterSimParams cp;
    cp.numServers = 2;
    cp.seed = 42;
    ClusterSim sim(eq, cat, uManycoreParams(), cp);

    LoadGenParams lp;
    lp.rps = 10000.0;
    lp.stop = fromMs(20.0);
    lp.seed = 42;
    lp.partition =
        static_cast<std::uint16_t>(sim.machine(0).numClusters());
    LoadGenerator gen(eq, cat, lp,
                      [&sim](ServiceId ep) { sim.submitRoot(ep); });
    gen.start();
    sim.setRecording(false);
    eq.schedule(fromMs(2.0), EvTag{EvSrc::Kernel, lp.partition},
                [&sim]() { sim.setRecording(true); });
    ASSERT_TRUE(eq.runUntil(fromSec(3.0)));
    eq.setProfiler(nullptr);
    prof.finalize();

    ASSERT_GT(prof.totalEvents(), 0u);
    const double frac =
        static_cast<double>(prof.unpartitionedEvents()) /
        static_cast<double>(prof.totalEvents());
    EXPECT_LT(frac, 0.005) << prof.unpartitionedEvents() << " of "
                           << prof.totalEvents()
                           << " events carried no partition";
}

} // namespace
} // namespace umany
