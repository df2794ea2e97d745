/**
 * @file
 * Fig 4 reproduction: CDF of per-request CPU utilization from the
 * Alibaba-calibrated model. Paper anchors: median ≈14%, 99% of
 * requests below 60%.
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
    const std::int64_t n = args.cfg.getInt("samples", 500000);
    args.cfg.rejectUnread();

    bench::banner("Fig 4", "CDF of CPU utilization per request");

    AlibabaModel model(args.seed);
    Cdf cdf;
    for (std::int64_t i = 0; i < n; ++i)
        cdf.add(model.sampleCpuUtil());

    std::printf("%s\n", cdf.format(13, 0.0, 0.6).c_str());

    Table t({"anchor", "model", "paper"});
    t.addRow({"median util", Table::num(cdf.quantile(0.5), 3),
              "~0.14"});
    t.addRow({"p99 util", Table::num(cdf.quantile(0.99), 3),
              "<0.60"});
    std::printf("%s", t.format().c_str());
    return 0;
}
