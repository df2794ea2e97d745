#include "obs/simprof.hh"

#include <algorithm>

#include "noc/topology.hh"
#include "obs/json.hh"
#include "sim/logging.hh"

namespace umany
{

const char *
evSrcName(EvSrc src)
{
    switch (src) {
      case EvSrc::Other: return "other";
      case EvSrc::Kernel: return "kernel";
      case EvSrc::Sampler: return "sampler";
      case EvSrc::LoadGen: return "loadgen";
      case EvSrc::Fault: return "fault";
      case EvSrc::NocHop: return "noc_hop";
      case EvSrc::NocDeliver: return "noc_deliver";
      case EvSrc::NetExternal: return "net_external";
      case EvSrc::RpcNic: return "rpc_nic";
      case EvSrc::SchedDispatch: return "sched_dispatch";
      case EvSrc::ClientRetry: return "client_retry";
      case EvSrc::CoreRun: return "core_run";
      case EvSrc::CtxSwitch: return "ctx_switch";
      case EvSrc::MemCoherence: return "mem_coherence";
      case EvSrc::ReqComplete: return "req_complete";
    }
    return "invalid";
}

SimProfiler::SimProfiler(std::uint32_t batch_events)
    : batchEvents_(batch_events ? batch_events : 1),
      batchStart_(HostClock::now())
{
}

void
SimProfiler::growPartitions(std::uint16_t part)
{
    partEvents_.resize(static_cast<std::size_t>(part) + 1, 0);
}

void
SimProfiler::flushBatch()
{
    const auto t = HostClock::now();
    const double delta =
        std::chrono::duration<double, std::nano>(t - batchStart_)
            .count();
    batchStart_ = t;
    const double n = static_cast<double>(batchN_);
    // Distribute the batch's host time across the sources executed
    // inside it, proportionally to their event counts: the whole
    // delta is assigned, so per-source shares sum to the total.
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        if (batchCount_[s] == 0)
            continue;
        srcHostNs_[s] +=
            delta * static_cast<double>(batchCount_[s]) / n;
        srcEvents_[s] += batchCount_[s];
        batchCount_[s] = 0;
    }
    totalEvents_ += batchN_;
    totalHostNs_ += delta;
    batchN_ = 0;

    ++flushes_;
    if (flushes_ % timelineStride_ == 0) {
        timeline_.push_back(
            TimelinePoint{lastNow_, totalEvents_, totalHostNs_});
        if (timeline_.size() >= maxTimelinePoints) {
            // Keep every other point and double the stride so the
            // series stays bounded on arbitrarily long runs.
            std::size_t w = 0;
            for (std::size_t r = 0; r < timeline_.size(); r += 2)
                timeline_[w++] = timeline_[r];
            timeline_.resize(w);
            timelineStride_ *= 2;
        }
    }
}

void
SimProfiler::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    if (batchN_ > 0)
        flushBatch();
}

void
SimProfiler::setPartitionInfo(std::uint32_t clusters, Tick lookahead)
{
    clusters_ = clusters;
    lookahead_ = lookahead;
    partitionInfoSet_ = true;
}

void
SimProfiler::ensureDim(std::uint32_t dim)
{
    if (dim <= dim_)
        return;
    auto grow = [this, dim](std::vector<std::uint64_t> &m) {
        std::vector<std::uint64_t> next(
            static_cast<std::size_t>(dim) * dim, 0);
        for (std::uint32_t i = 0; i < dim_; ++i) {
            for (std::uint32_t j = 0; j < dim_; ++j)
                next[i * dim + j] = m[i * dim_ + j];
        }
        m = std::move(next);
    };
    grow(sentMsgs_);
    grow(sentBytes_);
    grow(deliveredMsgs_);
    grow(deliveredBytes_);
    dim_ = dim;
}

namespace
{

void
histogramJson(JsonWriter &w, const Histogram &h)
{
    w.beginObject();
    w.key("count").value(h.count());
    w.key("min").value(h.min());
    w.key("max").value(h.max());
    w.key("mean").value(h.mean());
    w.key("p50").value(h.p50());
    w.key("p99").value(h.p99());
    w.endObject();
}

void
matrixJson(JsonWriter &w, const std::vector<std::uint64_t> &m,
           std::uint32_t dim)
{
    w.beginArray();
    for (std::uint32_t i = 0; i < dim; ++i) {
        w.beginArray();
        for (std::uint32_t j = 0; j < dim; ++j)
            w.value(m[i * dim + j]);
        w.endArray();
    }
    w.endArray();
}

/** Per-cluster balance: max/mean of the first @p clusters counts. */
double
balanceMaxOverMean(const std::vector<std::uint64_t> &counts,
                   std::uint32_t clusters)
{
    if (clusters == 0)
        return 0.0;
    std::uint64_t sum = 0;
    std::uint64_t top = 0;
    for (std::uint32_t c = 0; c < clusters; ++c) {
        const std::uint64_t v =
            c < counts.size() ? counts[c] : 0;
        sum += v;
        top = std::max(top, v);
    }
    if (sum == 0)
        return 0.0;
    const double mean =
        static_cast<double>(sum) / static_cast<double>(clusters);
    return static_cast<double>(top) / mean;
}

} // namespace

std::string
SimProfiler::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("umany.sim_profile.v1");
    w.key("clock_batch_events").value(
        static_cast<std::uint64_t>(batchEvents_));

    w.key("events").beginObject();
    w.key("total").value(totalEvents_);
    w.key("per_source").beginArray();
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        if (srcEvents_[s] == 0)
            continue;
        w.beginObject();
        w.key("source").value(
            evSrcName(static_cast<EvSrc>(s)));
        w.key("events").value(srcEvents_[s]);
        w.key("host_ns").value(srcHostNs_[s]);
        w.key("host_share").value(
            totalHostNs_ > 0.0 ? srcHostNs_[s] / totalHostNs_
                               : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("host").beginObject();
    w.key("total_ns").value(totalHostNs_);
    w.key("events_per_sec")
        .value(totalHostNs_ > 0.0
                   ? static_cast<double>(totalEvents_) * 1e9 /
                         totalHostNs_
                   : 0.0);
    w.endObject();

    w.key("queue").beginObject();
    w.key("occupancy");
    histogramJson(w, occupancy_);
    w.key("horizon_ticks");
    histogramJson(w, horizon_);
    w.endObject();

    w.key("timeline").beginObject();
    w.key("sim_us").beginArray();
    for (const TimelinePoint &p : timeline_)
        w.value(toUs(p.simNow));
    w.endArray();
    w.key("events").beginArray();
    for (const TimelinePoint &p : timeline_)
        w.value(p.events);
    w.endArray();
    w.key("host_ns").beginArray();
    for (const TimelinePoint &p : timeline_)
        w.value(p.hostNs);
    w.endArray();
    w.endObject();

    w.key("partitions").beginObject();
    w.key("clusters").value(
        static_cast<std::uint64_t>(clusters_));
    w.key("events_per_cluster").beginArray();
    for (std::uint32_t c = 0; c < clusters_; ++c)
        w.value(c < partEvents_.size() ? partEvents_[c] : 0);
    w.endArray();
    // Events tagged with the external bucket (top NIC endpoint).
    std::uint64_t ext = 0;
    for (std::size_t c = clusters_; c < partEvents_.size(); ++c)
        ext += partEvents_[c];
    w.key("events_external").value(ext);
    w.key("events_unpartitioned").value(partNone_);
    w.key("balance_max_over_mean")
        .value(balanceMaxOverMean(partEvents_, clusters_));

    w.key("noc_matrix").beginObject();
    w.key("dim").value(static_cast<std::uint64_t>(dim_));
    w.key("labels").beginArray();
    for (std::uint32_t i = 0; i < dim_; ++i) {
        if (i < clusters_ || clusters_ == 0)
            w.value(strprintf("c%u", i));
        else
            w.value("ext");
    }
    w.endArray();
    w.key("sent_msgs");
    matrixJson(w, sentMsgs_, dim_);
    w.key("sent_bytes");
    matrixJson(w, sentBytes_, dim_);
    w.key("delivered_msgs");
    matrixJson(w, deliveredMsgs_, dim_);
    w.endObject();

    std::uint64_t cross = 0;
    for (std::uint32_t i = 0; i < dim_; ++i) {
        for (std::uint32_t j = 0; j < dim_; ++j) {
            if (i != j)
                cross += sentMsgs_[i * dim_ + j];
        }
    }
    w.key("noc_totals").beginObject();
    w.key("sent_msgs").value(totalSent_);
    w.key("delivered_msgs").value(totalDelivered_);
    w.key("cross_partition_frac")
        .value(totalSent_ > 0 ? static_cast<double>(cross) /
                                    static_cast<double>(totalSent_)
                              : 0.0);
    w.endObject();

    w.key("lookahead").beginObject();
    w.key("min_cross_cluster_ticks").value(lookahead_);
    w.key("min_cross_cluster_us").value(toUs(lookahead_));
    w.endObject();

    w.endObject();
    w.endObject();
    return w.str();
}

std::string
SimProfiler::formatTable() const
{
    std::string out;
    out += "-- sim profile: host time by event source "
           "--------------------\n";
    out += strprintf("%-15s %12s %6s %10s %6s\n", "source",
                     "events", "ev%", "host ms", "host%");
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        if (srcEvents_[s] == 0)
            continue;
        out += strprintf(
            "%-15s %12llu %6.1f %10.2f %6.1f\n",
            evSrcName(static_cast<EvSrc>(s)),
            static_cast<unsigned long long>(srcEvents_[s]),
            totalEvents_
                ? 100.0 * static_cast<double>(srcEvents_[s]) /
                      static_cast<double>(totalEvents_)
                : 0.0,
            srcHostNs_[s] / 1e6,
            totalHostNs_ > 0.0
                ? 100.0 * srcHostNs_[s] / totalHostNs_
                : 0.0);
    }
    out += strprintf(
        "%-15s %12llu %6.1f %10.2f %6.1f  (%.2f M events/s)\n",
        "total", static_cast<unsigned long long>(totalEvents_),
        100.0, totalHostNs_ / 1e6, 100.0,
        totalHostNs_ > 0.0
            ? static_cast<double>(totalEvents_) * 1e3 / totalHostNs_
            : 0.0);
    out += strprintf(
        "queue occupancy p50/p99/max: %llu / %llu / %llu\n",
        static_cast<unsigned long long>(occupancy_.p50()),
        static_cast<unsigned long long>(occupancy_.p99()),
        static_cast<unsigned long long>(occupancy_.max()));
    out += strprintf(
        "schedule horizon p50/p99: %.2f / %.2f us (sampled 1/%u)\n",
        toUs(horizon_.p50()), toUs(horizon_.p99()),
        1u << horizonSampleShift);

    if (partitionInfoSet_) {
        out += "-- partitionability "
               "--------------------------------------------\n";
        std::uint64_t sum = 0;
        std::uint64_t top = 0;
        for (std::uint32_t c = 0; c < clusters_; ++c) {
            const std::uint64_t v =
                c < partEvents_.size() ? partEvents_[c] : 0;
            sum += v;
            top = std::max(top, v);
        }
        const double mean =
            clusters_ ? static_cast<double>(sum) /
                            static_cast<double>(clusters_)
                      : 0.0;
        out += strprintf(
            "clusters %u | events/cluster mean %.0f max %llu "
            "(max/mean %.2f) | unpartitioned %llu\n",
            clusters_, mean,
            static_cast<unsigned long long>(top),
            balanceMaxOverMean(partEvents_, clusters_),
            static_cast<unsigned long long>(partNone_));
        std::uint64_t cross = 0;
        for (std::uint32_t i = 0; i < dim_; ++i) {
            for (std::uint32_t j = 0; j < dim_; ++j) {
                if (i != j)
                    cross += sentMsgs_[i * dim_ + j];
            }
        }
        out += strprintf(
            "noc msgs sent %llu (cross-partition %.1f%%), "
            "delivered %llu\n",
            static_cast<unsigned long long>(totalSent_),
            totalSent_ ? 100.0 * static_cast<double>(cross) /
                             static_cast<double>(totalSent_)
                       : 0.0,
            static_cast<unsigned long long>(totalDelivered_));
        out += strprintf(
            "lookahead (min cross-cluster icn latency): %.3f us\n",
            toUs(lookahead_));
    }
    return out;
}

Tick
minCrossPartitionLatency(const Topology &topo,
                         const std::vector<std::uint16_t> &parts,
                         std::uint32_t clusters, std::uint32_t bytes)
{
    Tick best = 0;
    bool found = false;
    const std::size_t n =
        std::min(parts.size(), topo.endpointCount());
    for (std::size_t a = 0; a < n; ++a) {
        if (parts[a] >= clusters)
            continue;
        for (std::size_t b = 0; b < n; ++b) {
            if (parts[b] >= clusters || parts[a] == parts[b])
                continue;
            const Tick lat = topo.contentionFreeLatency(
                static_cast<EndpointId>(a),
                static_cast<EndpointId>(b), bytes);
            if (!found || lat < best) {
                best = lat;
                found = true;
            }
        }
    }
    return found ? best : 0;
}

} // namespace umany
