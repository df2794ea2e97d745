/**
 * @file
 * Fig 1 reproduction: four recently proposed microarchitectural
 * optimizations evaluated on monolithic vs microservice workloads.
 *
 * Expected shape (paper): monolithic speedups of ≈1.19 (Pythia data
 * prefetcher), ≈1.14 (perceptron branch predictor), ≈1.16 (I-SPY
 * instruction prefetcher), ≈1.02 (Ripple I-cache replacement);
 * microservice speedups of ≈1.02, ≈1.01, ≈1.00, ≈1.00.
 */

#include <memory>

#include "bench/common.hh"
#include "mem/cache.hh"
#include "uarch/gshare.hh"
#include "uarch/ispy_lite.hh"
#include "uarch/perceptron.hh"
#include "uarch/pipeline_model.hh"
#include "uarch/pythia_lite.hh"
#include "uarch/stride_prefetcher.hh"
#include "uarch/trace_gen.hh"

using namespace umany;

namespace
{

struct CacheRates
{
    double l1Miss = 0.0;
    double l2MissOfL1Miss = 0.0;
};

/** Run an address trace through L1+L2 with an optional prefetcher. */
CacheRates
runCaches(const std::vector<std::uint64_t> &addrs,
          const CacheParams &l1p, const CacheParams &l2p,
          Prefetcher *pf, std::unique_ptr<ReplacementPolicy> l1_policy =
                              nullptr)
{
    Cache l1(l1p, std::move(l1_policy));
    Cache l2(l2p);
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_misses = 0;
    for (const std::uint64_t a : addrs) {
        const bool hit = l1.access(a);
        if (!hit) {
            ++l1_misses;
            if (!l2.access(a))
                ++l2_misses;
        }
        if (pf != nullptr)
            pf->observe(a, hit, l1);
    }
    CacheRates r;
    r.l1Miss = static_cast<double>(l1_misses) /
               static_cast<double>(addrs.size());
    r.l2MissOfL1Miss =
        l1_misses ? static_cast<double>(l2_misses) /
                        static_cast<double>(l1_misses)
                  : 0.0;
    return r;
}

double
mispredictRate(const std::vector<std::pair<std::uint64_t, bool>> &brs,
               BranchPredictor &bp)
{
    std::uint64_t wrong = 0;
    for (const auto &[pc, taken] : brs) {
        if (!bp.step(pc, taken))
            ++wrong;
    }
    return static_cast<double>(wrong) /
           static_cast<double>(brs.size());
}

CacheParams
l1d()
{
    return CacheParams{"l1d", 64 * 1024, 8, 64, 2, 20};
}

CacheParams
l1i()
{
    return CacheParams{"l1i", 64 * 1024, 8, 64, 2, 20};
}

CacheParams
l2()
{
    return CacheParams{"l2", 2 * 1024 * 1024, 16, 64, 16, 20};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.parse(argc, argv);
    const std::size_t n = static_cast<std::size_t>(
        args.cfg.getInt("trace_len", 2000000));
    args.cfg.rejectUnread();

    bench::banner("Fig 1", "uarch optimizations: monolithic vs "
                           "microservice speedups");

    const UarchTrace mono = TraceGen::monolithic(args.seed, n);
    const UarchTrace micro = TraceGen::microservice(args.seed + 1, n);

    PipelineModel pipe{PipelineParams{}};
    Table t({"optimization", "Mono speedup", "Micro speedup"});

    // Baseline whole-workload CPI inputs per workload class: each
    // optimization then changes only its own dimension, so speedups
    // are end-to-end (as in the paper), not component-local.
    CpiInputs base_in[2];
    const UarchTrace *traces[2] = {&mono, &micro};
    for (int w = 0; w < 2; ++w) {
        const auto d =
            runCaches(traces[w]->dataAddrs, l1d(), l2(), nullptr);
        const auto ins =
            runCaches(traces[w]->instrAddrs, l1i(), l2(), nullptr);
        GsharePredictor gshare;
        const double mr = mispredictRate(traces[w]->branches, gshare);
        base_in[w].dataL1MissRate = d.l1Miss;
        base_in[w].dataL2MissRate = d.l2MissOfL1Miss;
        base_in[w].instrL1MissRate = ins.l1Miss;
        base_in[w].instrL2MissRate = ins.l2MissOfL1Miss;
        base_in[w].mispredictRate = mr;
    }

    auto cpiData = [&](int w, const CacheRates &r) {
        CpiInputs in = base_in[w];
        in.dataL1MissRate = r.l1Miss;
        in.dataL2MissRate = r.l2MissOfL1Miss;
        return pipe.cpi(in);
    };
    auto cpiInstr = [&](int w, const CacheRates &r) {
        CpiInputs in = base_in[w];
        in.instrL1MissRate = r.l1Miss;
        in.instrL2MissRate = r.l2MissOfL1Miss;
        return pipe.cpi(in);
    };
    auto cpiBranch = [&](int w, double mr) {
        CpiInputs in = base_in[w];
        in.mispredictRate = mr;
        return pipe.cpi(in);
    };

    // --- D-Prefetcher: none vs Pythia-lite RL prefetcher. ---
    {
        double spd[2];
        for (int w = 0; w < 2; ++w) {
            PythiaLitePrefetcher pythia(args.seed + 7);
            const auto opt =
                runCaches(traces[w]->dataAddrs, l1d(), l2(), &pythia);
            spd[w] = PipelineModel::speedup(pipe.cpi(base_in[w]),
                                            cpiData(w, opt));
        }
        t.addRow({"D-Prefetcher (Pythia-lite)", Table::num(spd[0]),
                  Table::num(spd[1])});
    }

    // --- Branch predictor: g-share vs perceptron. ---
    {
        double spd[2];
        for (int w = 0; w < 2; ++w) {
            PerceptronPredictor perceptron;
            const double opt =
                mispredictRate(traces[w]->branches, perceptron);
            spd[w] = PipelineModel::speedup(pipe.cpi(base_in[w]),
                                            cpiBranch(w, opt));
        }
        t.addRow({"Branch Predictor (perceptron)", Table::num(spd[0]),
                  Table::num(spd[1])});
    }

    // --- I-Prefetcher: none vs I-SPY-lite. ---
    {
        double spd[2];
        for (int w = 0; w < 2; ++w) {
            IspyLitePrefetcher ispy(3, 4);
            const auto opt = runCaches(traces[w]->instrAddrs, l1i(),
                                       l2(), &ispy);
            spd[w] = PipelineModel::speedup(pipe.cpi(base_in[w]),
                                            cpiInstr(w, opt));
        }
        t.addRow({"I-Prefetcher (I-SPY-lite)", Table::num(spd[0]),
                  Table::num(spd[1])});
    }

    // --- I-cache replacement: LRU vs Ripple-lite profile-guided. ---
    {
        double spd[2];
        for (int w = 0; w < 2; ++w) {
            const auto hot =
                TraceGen::hotInstrLines(*traces[w], 0.10, 64);
            auto policy = std::make_unique<ProfileGuidedPolicy>(
                std::unordered_set<std::uint64_t>(hot.begin(),
                                                  hot.end()));
            const auto opt =
                runCaches(traces[w]->instrAddrs, l1i(), l2(), nullptr,
                          std::move(policy));
            spd[w] = PipelineModel::speedup(pipe.cpi(base_in[w]),
                                            cpiInstr(w, opt));
        }
        t.addRow({"I-Cache Replace (Ripple-lite)", Table::num(spd[0]),
                  Table::num(spd[1])});
    }

    std::printf("%s\n", t.format().c_str());
    std::printf("paper reference: Mono 1.19 / 1.14 / 1.16 / 1.02; "
                "Micro 1.02 / 1.01 / 1.00 / 1.00\n");
    return 0;
}
