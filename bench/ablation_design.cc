/**
 * @file
 * Ablations of the reproduction's own load-bearing modelling
 * choices (DESIGN.md §5) — not a paper figure, but the evidence for
 * why each mechanism is in the model. Each row toggles one knob and
 * reports the effect on tail latency at 15K RPS per server.
 */

#include "bench/common.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

RunMetrics
run(const ServiceCatalog &catalog, const MachineParams &mp,
    const BenchArgs &args, ArrivalKind arrivals, double rps)
{
    return runExperiment(catalog,
                         evalConfig(mp, rps, args, arrivals));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);
    const double rps = args.cfg.getDouble("rps", 15000.0);
    args.cfg.rejectUnread();

    banner("Design ablations",
           "one-knob-at-a-time effects on P99 at 15K RPS");

    const ServiceCatalog catalog = buildSocialNetwork();
    Table t({"knob", "machine", "P99 off/base (ms)",
             "P99 on/ablated (ms)", "effect"});

    auto addRow = [&](const char *knob, const char *machine,
                      double base, double ablated) {
        t.addRow({knob, machine, Table::num(base, 3),
                  Table::num(ablated, 3),
                  Table::num(base > 0.0 ? ablated / base : 0.0, 2) +
                      "x"});
    };

    // 1. Bursty vs Poisson arrivals (ServerClass near saturation).
    {
        const MachineParams mp = serverClassParams();
        std::fprintf(stderr, "arrivals ablation...\n");
        const double bursty =
            run(catalog, mp, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double poisson =
            run(catalog, mp, args, ArrivalKind::Poisson, rps)
                .overall.p99Ms;
        addRow("bursty arrivals", "ServerClass", poisson, bursty);
    }

    // 2. Software RPC tax (ScaleOut with/without the per-message
    //    RPC-layer core cost). ICN contention is disabled so the
    //    dominant NIC-link term does not mask the effect.
    {
        MachineParams base = scaleOutParams();
        base.icnContention = false;
        MachineParams no_tax = base;
        no_tax.nic.swRxCycles = 0;
        no_tax.nic.swTxCycles = 0;
        std::fprintf(stderr, "rpc-tax ablation...\n");
        const double with_tax =
            run(catalog, base, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double without =
            run(catalog, no_tax, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        addRow("sw RPC tax", "ScaleOut", without, with_tax);
    }

    // 3. Centralized dispatcher cost (ScaleOut, light vs default),
    //    again with ICN contention out of the way.
    {
        MachineParams base = scaleOutParams();
        base.icnContention = false;
        MachineParams light = base;
        light.dispatcher.opCycles = 100;
        light.cs = contextSwitchModel(CsScheme::HardwareRq);
        std::fprintf(stderr, "dispatcher ablation...\n");
        const double heavy =
            run(catalog, base, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double cheap =
            run(catalog, light, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        addRow("centralized sw scheduler", "ScaleOut", cheap, heavy);
    }

    // 4. ICN contention (ScaleOut fat tree, on/off).
    {
        MachineParams base = scaleOutParams();
        MachineParams off = base;
        off.icnContention = false;
        std::fprintf(stderr, "icn ablation...\n");
        const double on =
            run(catalog, base, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double noc =
            run(catalog, off, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        addRow("ICN contention", "ScaleOut", noc, on);
    }

    // 5. Partitioned RQ (§4.3's advanced design) on μManycore.
    {
        MachineParams base = uManycoreParams();
        MachineParams part = base;
        part.rq.partitioned = true;
        std::fprintf(stderr, "partitioned-rq ablation...\n");
        const double plain =
            run(catalog, base, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double partitioned =
            run(catalog, part, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        addRow("partitioned RQ (RQ_Map)", "uManycore", plain,
               partitioned);
    }

    // 6. Village migration scope: μManycore with 16-core villages.
    {
        MachineParams base = uManycoreParams();
        const MachineParams big =
            uManycoreConfigParams(16, 2, 32);
        std::fprintf(stderr, "village-size ablation...\n");
        const double small_v =
            run(catalog, base, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double big_v =
            run(catalog, big, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        addRow("16-core villages", "uManycore", small_v, big_v);
    }

    // 7. §8 future work: heterogeneous villages (25% big cores).
    {
        MachineParams base = uManycoreParams();
        MachineParams hetero = base;
        hetero.bigVillageFraction = 0.25;
        hetero.bigVillagePerfFactor = 0.75;
        std::fprintf(stderr, "hetero-villages ablation...\n");
        const double homo =
            run(catalog, base, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        const double het =
            run(catalog, hetero, args, ArrivalKind::Bursty, rps)
                .overall.p99Ms;
        addRow("25% big villages (s8)", "uManycore", homo, het);
    }

    std::printf("%s", t.format().c_str());
    return 0;
}
