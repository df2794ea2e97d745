/**
 * @file
 * Fig 20 reproduction: tail latency with synthetic service-time
 * distributions (exponential, lognormal, bimodal) with 2–6 blocking
 * calls per request, at 5/10/15K RPS per server, for the three
 * machines, normalized to ServerClass.
 *
 * Paper shape: μManycore outperforms both baselines for all
 * distributions and loads (9.1x / 7.2x average tail reduction over
 * ServerClass / ScaleOut); gains grow with load.
 */

#include "bench/common.hh"
#include "stats/summary.hh"
#include "workload/synthetic.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    args.cfg.rejectUnread();
    setInformEnabled(false);

    banner("Fig 20", "synthetic service-time distributions");

    const std::vector<std::pair<std::string, MachineParams>> machines =
        {
            {"ServerClass", serverClassParams()},
            {"ScaleOut", scaleOutParams()},
            {"uManycore", uManycoreParams()},
        };
    const std::vector<SynthDist> dists = {SynthDist::Exponential,
                                          SynthDist::Lognormal,
                                          SynthDist::Bimodal};
    const std::vector<double> loads = {5000.0, 10000.0, 15000.0};

    // Sweep points: (dist, load, machine), machine fastest. Every
    // point builds its own catalog so points share nothing.
    const std::size_t nm = machines.size();
    const std::size_t npoints = dists.size() * loads.size() * nm;
    SweepRunner runner(args.jobs);
    const std::vector<double> p99s =
        runner.map<double>(npoints, [&](std::size_t i) {
            const SynthDist d = dists[i / (loads.size() * nm)];
            const double rps = loads[(i / nm) % loads.size()];
            const auto &[name, mp] = machines[i % nm];
            std::fprintf(stderr, "%s %s @%.0f...\n", synthDistName(d),
                         name.c_str(), rps);
            SyntheticParams sp;
            sp.dist = d;
            const ServiceCatalog catalog = buildSynthetic(sp);
            ExperimentConfig cfg =
                evalConfig(mp, rps, args, ArrivalKind::Bursty);
            cfg.obs = obsForPoint(args.obs, i, npoints);
            return runExperiment(catalog, cfg).overall.p99Ms;
        });

    Table t({"workload", "ServerClass P99 (ms)", "ScaleOut (norm)",
             "uManycore (norm)"});
    Summary red_sc;
    Summary red_so;
    for (std::size_t di = 0; di < dists.size(); ++di) {
        for (std::size_t li = 0; li < loads.size(); ++li) {
            const double *p99 =
                &p99s[(di * loads.size() + li) * nm];
            t.addRow({strprintf("%s%.0fK", synthDistName(dists[di]),
                                loads[li] / 1000.0),
                      Table::num(p99[0], 3),
                      Table::num(p99[1] / p99[0], 3),
                      Table::num(p99[2] / p99[0], 3)});
            if (p99[2] > 0.0) {
                red_sc.add(p99[0] / p99[2]);
                red_so.add(p99[1] / p99[2]);
            }
        }
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("mean tail reduction: uManycore %.1fx vs ServerClass "
                "(paper 9.1x), %.1fx vs ScaleOut (paper 7.2x)\n",
                red_sc.mean(), red_so.mean());
    return 0;
}
