/**
 * @file
 * Scheduling-policy race: the dispatch-policy zoo under the
 * attribution ledger.
 *
 * Sweeps offered load x dispatch policy on the μManycore machine
 * (social-network workload) and reports, per point, the P99.9
 * end-to-end latency plus the ledger's answer to *why* the tail is
 * what it is: the RQ-wait and blocked-on-child ticks on the critical
 * paths of the retained slowest roots. Probing dispatch (po2c /
 * jsqd) and hardware work stealing should each pull the RQ-wait
 * component down versus round-robin once the machine saturates
 * (rho >= 0.8); the ledger keeps summing to end-to-end either way
 * (mismatches column).
 */

#include <cstdlib>

#include "bench/common.hh"
#include "workload/synthetic.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

/** Parse "a,b,c" into doubles; fatal on junk. */
std::vector<double>
parseList(const std::string &s)
{
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string tok = s.substr(pos, comma - pos);
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0' || v <= 0.0)
            fatal("bad list element '%s'", tok.c_str());
        out.push_back(v);
        pos = comma + 1;
    }
    if (out.empty())
        fatal("empty list");
    return out;
}

/** Parse "rr,po2c,..." into dispatch kinds. */
std::vector<DispatchKind>
parsePolicies(const std::string &s)
{
    std::vector<DispatchKind> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(
            parseDispatchKind(s.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    if (out.empty())
        fatal("no policies given");
    return out;
}

struct PointResult
{
    RunMetrics metrics;
    AttribResult attrib;
    StatsDump stats;
};

/** Merged end-to-end latency histogram across endpoints. */
Histogram
mergedLatency(const TailProfiler &prof)
{
    Histogram h;
    for (const auto &[ep, profile] : prof.endpoints())
        h.merge(profile.latencyTicks);
    return h;
}

/**
 * P99.9 of one critical-path component across every root: the
 * per-endpoint pathTicks histograms merged, then quantile(0.999).
 * This is "the RQ-wait component at P99.9" — how much of the worst
 * roots' critical paths the component occupies.
 */
double
componentP999Us(const TailProfiler &prof, AttribComp comp)
{
    Histogram h;
    for (const auto &[ep, profile] : prof.endpoints())
        h.merge(profile.pathTicks[static_cast<std::size_t>(comp)]);
    return static_cast<double>(h.quantile(0.999)) / tickPerUs;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);

    const std::vector<double> loads = parseList(
        args.cfg.getString("rps_list", "6000,12000,18000"));
    const std::vector<DispatchKind> policies = parsePolicies(
        args.cfg.getString("policies", "rr,po2c,jsqd,steal,slo"));
    const std::string arriv =
        args.cfg.getString("arrivals", "poisson");
    if (arriv != "poisson" && arriv != "bursty")
        fatal("arrivals must be poisson or bursty (got '%s')",
              arriv.c_str());
    const ArrivalKind arrivals = arriv == "bursty"
                                     ? ArrivalKind::Bursty
                                     : ArrivalKind::Poisson;
    // Heterogeneous villages (§8): a fraction of villages runs
    // faster cores. Round-robin is blind to the speed difference;
    // occupancy-probing policies should route around the slow
    // majority — the classic straggler setting for a policy race.
    const double hetero = args.cfg.getDouble("hetero", 0.25);
    if (hetero < 0.0 || hetero > 1.0)
        fatal("hetero must be in [0, 1] (got %g)", hetero);
    args.cfg.rejectUnread();

    banner("Fig policy-race",
           "dispatch policies raced under the attribution ledger");

    const ServiceCatalog social = buildSocialNetwork();
    const std::size_t npoints = loads.size() * policies.size();

    SweepRunner runner(args.jobs);
    const std::vector<PointResult> runs =
        runner.map<PointResult>(npoints, [&](std::size_t i) {
            const double rps = loads[i / policies.size()];
            const DispatchKind kind = policies[i % policies.size()];
            std::fprintf(stderr, "running %s @ %.0f rps...\n",
                         dispatchKindName(kind), rps);
            MachineParams mp = uManycoreParams();
            mp.bigVillageFraction = hetero;
            ExperimentConfig cfg =
                evalConfig(mp, rps, args, arrivals);
            cfg.machine.dispatch.kind = kind;
            // At the default d = 2 JSQ(d) is literally po2c; give it
            // a deeper probe fan so the race shows the d axis unless
            // the user pinned one explicitly.
            if (kind == DispatchKind::Jsqd &&
                cfg.machine.dispatch.probes == 2)
                cfg.machine.dispatch.probes = 4;
            cfg.obs = obsForPoint(args.obs, i, npoints);
            PointResult r;
            r.metrics =
                runExperiment(social, cfg, &r.stats, &r.attrib);
            return r;
        });

    Table t({"rps/server", "policy", "P99.9 (ms)",
             "p99.9 rq_wait (us)", "p99.9 blocked (us)",
             "ledger mismatches", "steals", "preempts"});
    for (std::size_t i = 0; i < npoints; ++i) {
        const PointResult &r = runs[i];
        const DispatchKind kind = policies[i % policies.size()];
        const Histogram lat = mergedLatency(r.attrib.profiler);
        const bool rr = kind == DispatchKind::RoundRobin;
        t.addRow({Table::num(loads[i / policies.size()], 0),
                  dispatchKindName(kind),
                  Table::num(toMs(lat.quantile(0.999)), 3),
                  Table::num(componentP999Us(r.attrib.profiler,
                                             AttribComp::RqWait),
                             1),
                  Table::num(
                      componentP999Us(r.attrib.profiler,
                                      AttribComp::BlockedOnChild),
                      1),
                  Table::num(static_cast<double>(
                                 r.attrib.ledgerMismatches),
                             0),
                  Table::num(rr ? 0.0
                                : r.stats.value(
                                      "cluster.sched.steals"),
                             0),
                  Table::num(rr ? 0.0
                                : r.stats.value(
                                      "cluster.sched.preemptions"),
                             0)});
    }
    std::printf("%s\n", t.format().c_str());

    std::printf("rq_wait / blocked are the P99.9 of each root's "
                "critical-path component (merged across\n"
                "endpoints); the ledger check is end-to-end == "
                "sum(components) per root.\n");
    return 0;
}
