/**
 * @file
 * Fig 7 reproduction: impact of on-package ICN contention on tail
 * latency, for the 1024-core ScaleOut manycore with a 2D-mesh and a
 * fat-tree ICN at 1K/5K/10K/50K RPS. Each bar is the tail latency
 * with contention divided by the tail of the identical run with
 * contention disabled.
 *
 * Paper shape: contention inflates the tail substantially and grows
 * with load; the mesh suffers more than the fat tree (14.7x vs 7.5x
 * at 50K RPS); the leaf-spine (shown as reference) barely suffers.
 */

#include "bench/common.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

double
tailWithContention(const ServiceCatalog &catalog, MachineParams mp,
                   double rps, const BenchArgs &args, bool contention)
{
    mp.icnContention = contention;
    // Focus on ICN effects: hardware-cost context switching keeps
    // the software scheduler out of the picture.
    mp.cs = contextSwitchModel(CsScheme::HardwareRq);
    BenchArgs one = args;
    one.servers = 1;
    ExperimentConfig cfg =
        evalConfig(mp, rps, one, ArrivalKind::Bursty);
    // Saturated configurations would otherwise be bounded only by
    // the drain limit; a fixed horizon keeps ratios comparable.
    cfg.drainLimit = fromMs(400.0);
    const RunMetrics m = runExperiment(catalog, cfg);
    return m.overall.p99Ms;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    args.cfg.rejectUnread();
    setInformEnabled(false);

    banner("Fig 7", "tail inflation from ICN contention: "
                    "2D mesh vs fat tree (leaf-spine as reference)");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<double> loads = {1000.0, 10000.0, 20000.0,
                                       30000.0, 40000.0, 50000.0};

    struct TopoCase
    {
        const char *name;
        MachineParams params;
    };
    const std::vector<TopoCase> topos = {
        {"2D Mesh", scaleOutMeshParams()},
        {"Fat Tree", scaleOutParams()},
        {"Leaf-Spine", ablationLeafSpine()},
    };

    Table t({"load", "2D Mesh (x)", "Fat Tree (x)",
             "Leaf-Spine (x)"});
    for (const double rps : loads) {
        std::vector<std::string> row{
            strprintf("%.0fK-RPS", rps / 1000.0)};
        for (const TopoCase &tc : topos) {
            std::fprintf(stderr, "%s @%.0f...\n", tc.name, rps);
            const double with = tailWithContention(
                catalog, tc.params, rps, args, true);
            const double without = tailWithContention(
                catalog, tc.params, rps, args, false);
            row.push_back(
                Table::num(without > 0.0 ? with / without : 0.0, 2));
        }
        t.addRow(std::move(row));
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("paper: at 50K RPS, mesh 14.7x, fat tree 7.5x; "
                "contention grows with load\n");
    return 0;
}
