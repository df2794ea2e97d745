/**
 * @file
 * Fig 9 reproduction: L1/L2 TLB and cache hit rates for data and
 * instructions when executing microservice handlers on the Table-2
 * ServerClass hierarchy (the configuration with two TLB levels).
 *
 * Paper anchors: L1 TLB and L1 cache hit rates above 95% for both
 * data and instructions; L2 structures lower because the L1s filter
 * the high-locality accesses.
 */

#include "bench/common.hh"
#include "mem/footprint.hh"
#include "mem/hierarchy.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.parse(argc, argv);
    const int requests = static_cast<int>(
        args.cfg.getInt("requests", 300));
    const int accesses_per_req = static_cast<int>(
        args.cfg.getInt("accesses", 20000));
    args.cfg.rejectUnread();

    bench::banner("Fig 9", "L1/L2 TLB and cache hit rates "
                           "(data / instructions)");

    CacheHierarchy hier(serverClassHierarchyParams());
    FootprintGenerator gen(FootprintProfile{}, args.seed);
    Rng rng(args.seed ^ 0xf00dull);

    // Handlers of the same instance run back-to-back on a core:
    // each touches its footprint with high temporal locality —
    // instructions execute as looping runs over a few hot
    // functions; data goes mostly to a hot working subset, with
    // occasional reads into the instance's large read-mostly state
    // (which is what exercises the second-level TLB).
    constexpr std::uint64_t instanceBytes = 16ull << 20;
    for (int r = 0; r < requests; ++r) {
        const Footprint fp = gen.makeHandler();
        const std::size_t dn = fp.dataLines.size();
        const std::size_t in = fp.instrLines.size();
        const std::size_t hot_d = std::max<std::size_t>(1, dn / 24);
        int a = 0;
        while (a < accesses_per_req) {
            // One function activation: a short run of consecutive
            // instruction lines, executed a few times (loops).
            // Most activations hit a few hot functions.
            const std::size_t f_start =
                rng.chance(0.85)
                    ? (rng.below(12) * 131) % in
                    : rng.below(in);
            const std::size_t f_len =
                8 + static_cast<std::size_t>(rng.below(17));
            const std::size_t reps = 3 + rng.below(4);
            for (std::size_t rep = 0; rep < reps; ++rep) {
                for (std::size_t l = 0;
                     l < f_len && a < accesses_per_req; ++l, ++a) {
                    hier.access(
                        fp.instrLines[(f_start + l) % in] * 64, true);
                    std::uint64_t daddr;
                    if (rng.chance(0.96)) {
                        daddr = fp.dataLines[rng.below(hot_d)] * 64;
                    } else if (rng.chance(0.75)) {
                        daddr = fp.dataLines[rng.below(dn)] * 64;
                    } else {
                        // Read-mostly instance state (snapshots).
                        daddr = 0x40000000ull +
                                rng.below(instanceBytes);
                    }
                    hier.access(daddr, false);
                }
            }
        }
    }

    Table t({"structure", "Data hit rate", "Instr hit rate",
             "paper"});
    t.addRow({"L1 TLB", Table::num(hier.l1dtlb().hitRate(), 3),
              Table::num(hier.l1itlb().hitRate(), 3), ">0.95"});
    t.addRow({"L1 Cache", Table::num(hier.l1d().hitRate(), 3),
              Table::num(hier.l1i().hitRate(), 3), ">0.95"});
    t.addRow({"L2 TLB", Table::num(hier.l2tlb()->hitRate(), 3),
              Table::num(hier.l2tlb()->hitRate(), 3), "lower"});
    t.addRow({"L2 Cache", Table::num(hier.l2().hitRate(), 3),
              Table::num(hier.l2().hitRate(), 3), "lower"});
    std::printf("%s\n", t.format().c_str());
    std::printf("note: L2 structures are shared between data and "
                "instructions (unified), so both columns report the "
                "same unified hit rate.\n");
    return 0;
}
