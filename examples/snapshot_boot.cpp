/**
 * @file
 * Example: service-instance creation with memory-pool snapshots
 * (§3.5, §4.1). Boots each social-network service cold, stores its
 * snapshot into a cluster memory pool, then boots warm instances —
 * reproducing the >300 ms -> <10 ms startup reduction the paper
 * cites from Catalyzer-style systems.
 *
 * Usage: snapshot_boot [pool_mb=64]
 */

#include <cstdio>

#include "sim/config.hh"
#include "stats/table.hh"
#include "workload/app_graph.hh"
#include "workload/snapshot.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);

    MemoryPoolParams pp;
    pp.capacityBytes = static_cast<std::uint64_t>(
                           cfg.getInt("pool_mb", 64)) *
                       1024 * 1024;
    cfg.rejectUnread();
    MemoryPool pool(pp);
    SnapshotBootModel boot;
    const ServiceCatalog catalog = buildSocialNetwork();

    Table t({"service", "snapshot (MB)", "cold boot (ms)",
             "warm boot (ms)", "speedup"});
    Tick now = 0;
    for (ServiceId s = 0; s < catalog.size(); ++s) {
        const ServiceSpec &svc = catalog.at(s);
        const Tick cold_done = boot.boot(now, svc, pool);
        const Tick cold = cold_done - now;
        now = cold_done;
        const Tick warm_done = boot.boot(now, svc, pool);
        const Tick warm = warm_done - now;
        now = warm_done;
        t.addRow({svc.name,
                  Table::num(static_cast<double>(svc.snapshotBytes) /
                                 (1024.0 * 1024.0),
                             0),
                  Table::num(toMs(cold), 1), Table::num(toMs(warm), 1),
                  Table::num(static_cast<double>(cold) /
                             static_cast<double>(warm))});
    }
    std::printf("%s", t.format().c_str());
    std::printf("pool: %.0f of %.0f MB used\n",
                static_cast<double>(pool.usedBytes()) / (1 << 20),
                static_cast<double>(pool.capacityBytes()) /
                    (1 << 20));
    std::printf("paper reference: snapshots reduce instance boot "
                "from >300 ms to <10 ms (§3.5)\n");
    return 0;
}
