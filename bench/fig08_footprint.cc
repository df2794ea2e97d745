/**
 * @file
 * Fig 8 reproduction: fraction of a handler's memory footprint that
 * is common with another handler of the same service instance
 * (Handler-Handler) and with the instance's initialization process
 * (Handler-Init), at page and cache-line granularity for data and
 * instructions. Paper: 78–99% common across all eight bars.
 */

#include "bench/common.hh"
#include "mem/footprint.hh"
#include "stats/summary.hh"

using namespace umany;

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.parse(argc, argv);
    const int instances = static_cast<int>(
        args.cfg.getInt("instances", 32));
    const int handlers = static_cast<int>(
        args.cfg.getInt("handlers", 16));
    args.cfg.rejectUnread();

    bench::banner("Fig 8", "handler-handler and handler-init "
                           "footprint sharing");

    Summary hh[4]; // d-page, d-line, i-page, i-line
    Summary hi[4];

    for (int inst = 0; inst < instances; ++inst) {
        FootprintGenerator gen(FootprintProfile{},
                               args.seed + static_cast<std::uint64_t>(
                                               inst));
        const Footprint init = gen.initFootprint();
        std::vector<Footprint> hs;
        for (int h = 0; h < handlers; ++h)
            hs.push_back(gen.makeHandler());

        for (int h = 0; h + 1 < handlers; h += 2) {
            const Footprint &a = hs[static_cast<std::size_t>(h)];
            const Footprint &b = hs[static_cast<std::size_t>(h + 1)];
            hh[0].add(FootprintGenerator::commonFraction(
                a.dataPages(), b.dataPages()));
            hh[1].add(FootprintGenerator::commonFraction(
                a.dataLines, b.dataLines));
            hh[2].add(FootprintGenerator::commonFraction(
                a.instrPages(), b.instrPages()));
            hh[3].add(FootprintGenerator::commonFraction(
                a.instrLines, b.instrLines));
        }
        for (int h = 0; h < handlers; ++h) {
            const Footprint &a = hs[static_cast<std::size_t>(h)];
            hi[0].add(FootprintGenerator::commonFraction(
                a.dataPages(), init.dataPages()));
            hi[1].add(FootprintGenerator::commonFraction(
                a.dataLines, init.dataLines));
            hi[2].add(FootprintGenerator::commonFraction(
                a.instrPages(), init.instrPages()));
            hi[3].add(FootprintGenerator::commonFraction(
                a.instrLines, init.instrLines));
        }
    }

    const char *bars[4] = {"d-Page", "d-Line", "i-Page", "i-Line"};
    Table t({"granularity", "Handler-Handler common",
             "Handler-Init common"});
    for (int k = 0; k < 4; ++k) {
        t.addRow({bars[k], Table::num(hh[k].mean(), 3),
                  Table::num(hi[k].mean(), 3)});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("paper reference: all bars in the 0.78-0.99 band\n");

    // Footprint size sanity (paper: ~0.5 MB per handler).
    FootprintGenerator gen(FootprintProfile{}, args.seed);
    Summary bytes;
    for (int h = 0; h < 64; ++h)
        bytes.add(static_cast<double>(gen.makeHandler().bytes()));
    std::printf("mean handler footprint: %.2f KB (paper ~512 KB)\n",
                bytes.mean() / 1024.0);
    return 0;
}
