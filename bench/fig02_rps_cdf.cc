/**
 * @file
 * Fig 2 reproduction: CDF of requests per second (RPS) received by
 * a server, from the Alibaba-calibrated generative trace model.
 *
 * Paper anchors: median ≈500 RPS; ≥1000 RPS 20% of the time;
 * ≥1500 RPS 5% of the time.
 */

#include "bench/common.hh"
#include "stats/cdf.hh"
#include "workload/alibaba.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.parse(argc, argv);
    const std::uint32_t seconds = static_cast<std::uint32_t>(
        args.cfg.getInt("seconds", 4000));
    args.cfg.rejectUnread();

    bench::banner("Fig 2", "CDF of per-server request rate (RPS)");

    AlibabaModel model(args.seed);
    Cdf cdf;
    for (const std::uint32_t rps : model.perSecondRates(seconds))
        cdf.add(static_cast<double>(rps));

    std::printf("%s\n",
                cdf.format(11, 0.0, 2000.0).c_str());

    Table t({"anchor", "model", "paper"});
    t.addRow({"median RPS", Table::num(cdf.quantile(0.5), 0), "~500"});
    t.addRow({"P(X >= 1000)", Table::num(1.0 - cdf.at(1000.0), 3),
              "~0.20"});
    t.addRow({"P(X >= 1500)", Table::num(1.0 - cdf.at(1500.0), 3),
              "~0.05"});
    std::printf("%s", t.format().c_str());
    return 0;
}
