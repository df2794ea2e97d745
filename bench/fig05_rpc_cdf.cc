/**
 * @file
 * Fig 5 reproduction: CDF of the number of RPC invocations per
 * dynamic request. Paper anchors: median ≈4.2; ≈5% of requests
 * invoke 16 or more RPCs.
 *
 * Also cross-checks the social-network application graph: the
 * paper reports ≈3.1 RPC invocations per service request for
 * DeathStarBench (§3.3).
 */

#include "bench/common.hh"
#include "stats/cdf.hh"
#include "stats/summary.hh"
#include "workload/alibaba.hh"
#include "workload/app_graph.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.parse(argc, argv);
    const std::int64_t n = args.cfg.getInt("samples", 500000);
    args.cfg.rejectUnread();

    bench::banner("Fig 5", "CDF of RPC invocations per request");

    AlibabaModel model(args.seed);
    Cdf cdf;
    for (std::int64_t i = 0; i < n; ++i)
        cdf.add(static_cast<double>(model.sampleRpcCount()));

    std::printf("%s\n", cdf.format(11, 0.0, 40.0).c_str());

    Table t({"anchor", "model", "paper"});
    t.addRow({"median RPCs", Table::num(cdf.quantile(0.5), 2),
              "~4.2"});
    t.addRow({"P(X >= 16)", Table::num(1.0 - cdf.at(15.999), 3),
              "~0.05"});
    std::printf("%s\n", t.format().c_str());

    // DeathStarBench-like handler statistics from the app graph.
    const ServiceCatalog cat = buildSocialNetwork();
    Rng rng(args.seed);
    Summary calls;
    Summary work_us;
    for (int i = 0; i < 20000; ++i) {
        for (const ServiceId id : cat.endpoints()) {
            const Behavior b = cat.makeBehavior(id, rng);
            std::size_t c = 0;
            for (const CallGroup &g : b.groups)
                c += g.size();
            calls.add(static_cast<double>(c));
            work_us.add(toUs(b.totalWork()));
        }
    }
    std::printf("social-network handler stats: %.2f blocking calls "
                "per handler (paper: ~3.1 RPCs/request),\n"
                "mean handler compute %.0f us (reference core)\n",
                calls.mean(), work_us.mean());
    return 0;
}
