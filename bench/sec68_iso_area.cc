/**
 * @file
 * §6.8 reproduction: iso-area comparison. The ServerClass baseline
 * is scaled to 128 cores (matching μManycore's package area per the
 * CACTI/McPAT-lite models); μManycore should still deliver much
 * lower tail latency (paper: 7.3x averaged over loads and apps)
 * while the 128-core ServerClass burns ~3.2x the power.
 */

#include "bench/common.hh"
#include "power/budget.hh"
#include "stats/summary.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    args.cfg.rejectUnread();
    setInformEnabled(false);

    banner("Sec 6.8", "iso-area ServerClass (128 cores) comparison");

    // Power/area sizing from the analytic models.
    const PackageBudget um = uManycoreBudget();
    const std::uint32_t iso_area_cores = isoAreaServerClassCores();
    const PackageBudget sc128 = serverClassBudget(iso_area_cores);
    const PackageBudget sc40 =
        serverClassBudget(isoPowerServerClassCores());

    Table p({"package", "cores", "area (mm^2)", "power (W)"});
    p.addRow({"uManycore", std::to_string(um.cores),
              Table::num(um.totalAreaMm2, 1),
              Table::num(um.totalW, 1)});
    p.addRow({"ServerClass iso-power", std::to_string(sc40.cores),
              Table::num(sc40.totalAreaMm2, 1),
              Table::num(sc40.totalW, 1)});
    p.addRow({"ServerClass iso-area", std::to_string(sc128.cores),
              Table::num(sc128.totalAreaMm2, 1),
              Table::num(sc128.totalW, 1)});
    std::printf("%s", p.format().c_str());
    std::printf("paper: 547.2 vs 176.1 mm^2 (3.1x area); iso-area "
                "ServerClass uses 3.2x uManycore's power\n\n");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<double> loads = {5000.0, 10000.0, 15000.0};

    Table t({"load", "SC-128 P99 (ms)", "uManycore P99 (ms)",
             "reduction"});
    Summary red;
    for (const double rps : loads) {
        std::fprintf(stderr, "running @%.0f...\n", rps);
        const RunMetrics sc = runExperiment(
            catalog, evalConfig(serverClassParams(iso_area_cores),
                                rps, args, ArrivalKind::Bursty));
        const RunMetrics umm = runExperiment(
            catalog,
            evalConfig(uManycoreParams(), rps, args,
                       ArrivalKind::Bursty));
        const double r = umm.overall.p99Ms > 0.0
                             ? sc.overall.p99Ms / umm.overall.p99Ms
                             : 0.0;
        red.add(r);
        t.addRow({strprintf("%.0fK RPS", rps / 1000.0),
                  Table::num(sc.overall.p99Ms, 3),
                  Table::num(umm.overall.p99Ms, 3), Table::num(r)});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("mean tail reduction vs iso-area ServerClass: %.1fx "
                "(paper 7.3x)\n",
                red.mean());
    return 0;
}
