/**
 * @file
 * Table 2 reproduction: the architectural parameters of the three
 * evaluated machines, plus the derived quantities (per-core power,
 * package areas, iso-power and iso-area ServerClass core counts)
 * from the CACTI/McPAT-lite models.
 */

#include "bench/common.hh"
#include "cpu/perf_model.hh"
#include "power/budget.hh"
#include "power/mcpat_lite.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    args.cfg.rejectUnread();
    banner("Table 2", "architectural parameters and derived sizing");

    auto row = [](const MachineParams &p) {
        return std::vector<std::string>{
            p.name,
            std::to_string(p.numCores),
            strprintf("%u-issue", p.core.issueWidth),
            strprintf("%u/%u", p.core.robEntries, p.core.lsqEntries),
            strprintf("%.1f GHz", p.core.ghz),
            strprintf("%ux%u",
                      p.coresPerVillage, p.villagesPerCluster),
            p.topo == MachineParams::Topo::Mesh      ? "2D mesh"
            : p.topo == MachineParams::Topo::FatTree ? "fat tree"
                                                     : "leaf-spine",
            p.sched == MachineParams::Sched::HwRq ? "HW RQ" : "SW",
            csSchemeName(p.cs.scheme),
        };
    };

    Table t({"machine", "cores", "issue", "ROB/LSQ", "clock",
             "village x cluster", "ICN", "sched", "ctx switch"});
    t.addRow(row(serverClassParams()));
    t.addRow(row(serverClassParams(128)));
    t.addRow(row(scaleOutParams()));
    t.addRow(row(uManycoreParams()));
    std::printf("%s\n", t.format().c_str());

    // Derived core-level numbers.
    const CoreEstimate um = coreWithCachesManycore(10);
    const CoreEstimate sc = coreWithCachesServerClass(10);
    Table d({"quantity", "model", "paper"});
    d.addRow({"uManycore W/core (incl. caches)",
              Table::num(um.powerW, 3), "0.408"});
    d.addRow({"ServerClass W/core (incl. caches)",
              Table::num(sc.powerW, 3), "10.225"});
    d.addRow({"uManycore package area (mm^2)",
              Table::num(uManycoreBudget().totalAreaMm2, 1),
              "547.2"});
    d.addRow({"ServerClass-40 package area (mm^2)",
              Table::num(serverClassBudget(40).totalAreaMm2, 1),
              "176.1"});
    d.addRow({"iso-power ServerClass cores",
              std::to_string(isoPowerServerClassCores()), "40"});
    d.addRow({"iso-area ServerClass cores",
              std::to_string(isoAreaServerClassCores()), "128"});
    d.addRow({"ServerClass handler speed vs manycore core",
              Table::num(1.0 / perfFactor(serverClassCoreParams(),
                                          manycoreCoreParams()),
                         2),
              "n/a (microservice-effective)"});
    std::printf("%s", d.format().c_str());
    return 0;
}
