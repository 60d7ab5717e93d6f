/**
 * @file
 * Ablation of the Section 5.3 reserve-bit machinery:
 *
 *  1. reserve-clearing discipline — the literal "all reserve bits reset
 *     when the counter reads zero" deadlocks across two locks, while the
 *     epoch-based dynamic solution the paper cites ([AdH89]) completes;
 *  2. the bounded-misses-while-reserved knob — how tightly new misses
 *     are throttled while a line is reserved trades the waiting sync's
 *     service latency against the reserving processor's overlap.
 */

#include <string>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "cpu/program_builder.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

MultiProgram
crossLockProgram()
{
    const Addr X0 = 0, X1 = 1, A = 10, B = 11;
    MultiProgram mp("cross-lock");
    {
        ProgramBuilder p0;
        p0.store(X0, 5)
            .label("a0").tas(0, A).bne(0, 0, "a0")
            .unset(A)
            .label("b0").tas(1, B).bne(1, 0, "b0")
            .unset(B)
            .halt();
        mp.addProgram(p0.build());
    }
    {
        ProgramBuilder p1;
        p1.store(X1, 6)
            .label("b1").tas(0, B).bne(0, 0, "b1")
            .unset(B)
            .label("a1").tas(1, A).bne(1, 0, "a1")
            .unset(A)
            .halt();
        mp.addProgram(p1.build());
    }
    return mp;
}

void
printDisciplineTable()
{
    benchutil::banner(
        "Ablation 1: reserve-clearing discipline on the cross-lock "
        "workload");
    benchutil::Table t({"discipline", "completes", "finish ticks",
                        "appears SC"});
    struct Row
    {
        std::string label;
        bool epoch;
        int bound;
    };
    for (const Row &row :
         {Row{"naive (clear at counter==0)", false, -1},
          Row{"naive + miss bound 0", false, 0},
          Row{"epoch (dynamic solution)", true, -1}}) {
        SystemConfig cfg =
            machineOrThrow("net").config(PolicyKind::Def2Drf0);
        cfg.cache.invApplyDelay = 300;
        cfg.cache.epochReserveClearing = row.epoch;
        cfg.cache.maxMissesWhileReserved = row.bound;
        cfg.maxTicks = 100000;
        System sys(crossLockProgram(), cfg);
        bool ok = sys.run();
        t.addRow({row.label, ok ? "yes" : "DEADLOCK",
                  ok ? std::to_string(sys.finishTick()) : "-",
                  ok ? (verifySc(sys.trace()).sc() ? "yes" : "NO") : "-"});
    }
    t.print();
    std::cout <<
        "\nExpected shape: the literal counter-zero rule deadlocks "
        "(neither processor's\nreserve can clear while its sync miss to "
        "the other lock is queued remotely);\nboth refinements the paper "
        "suggests restore progress, and the epoch discipline\nis "
        "fastest.\n";
}

void
printMissBoundTable()
{
    benchutil::banner(
        "Ablation 2: max misses while reserved (random DRF0 workloads, "
        "12 seeds)");
    benchutil::Table t({"miss bound", "avg finish ticks"});
    for (int bound : {0, 1, 2, 4, 8, -1}) {
        std::uint64_t total = 0;
        int n = 0;
        for (int s = 1; s <= 12; ++s) {
            RandomWorkloadConfig w;
            w.numProcs = 4;
            w.numLocks = 2;
            w.sectionsPerProc = 4;
            w.privateOpsBetween = 6;
            w.seed = s;
            SystemConfig cfg =
                machineOrThrow("net").config(PolicyKind::Def2Drf0,
                                             s * 3 + 1);
            cfg.cache.maxMissesWhileReserved = bound;
            cfg.cache.invApplyDelay = 60; // keep reserves held a while
            System sys(randomDrf0Program(w), cfg);
            if (!sys.run())
                continue;
            total += sys.finishTick();
            ++n;
        }
        t.addRow({bound < 0 ? "unlimited" : std::to_string(bound),
                  n ? std::to_string(total / n) : "-"});
    }
    t.print();
    std::cout << "\nExpected shape: tight bounds cost throughput (the "
                 "reserving processor loses\noverlap); the cost shrinks "
                 "as the bound loosens.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    wo::benchutil::consumeBenchFlags(argc, argv);
    printDisciplineTable();
    printMissBoundTable();
    return 0;
}
