/**
 * @file
 * Figure 3 reproduction: where the old and new definitions stall.
 *
 * Scenario (P0 and P1 share datum x and synchronize on s), run from the
 * corpus file tests/litmus/figure3.litmus with 3 cycles of other work:
 *   P0: W(x); other work; Unset(s); more work.
 *   P1: TestAndSet(s) until acquired; other work; R(x).
 *
 * The write of x is made progressively slower to perform globally (the
 * invalidation-acknowledge delay sweeps). Under Definition 1 the
 * *issuing* processor P0 must stall at the Unset until W(x) is globally
 * performed. Under the Definition 2 / DRF0 implementation P0 commits the
 * Unset and keeps going; only P1's TestAndSet is held up (by the reserve
 * bit) until W(x) is globally performed.
 */

#include <string>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "system/system.hh"

namespace {

using namespace wo;

struct Fig3Point
{
    Tick p0_stall;
    Tick p1_stall;
    Tick finish;
    bool sc;
};

Fig3Point
runFig3(PolicyKind pk, Tick write_gp_delay, std::uint64_t seed = 1)
{
    // The warm "net" machine: x shared in both caches, so the write
    // needs invalidations before it is globally performed.
    SystemConfig cfg = machineOrThrow("net").config(pk, seed);
    cfg.cache.invApplyDelay = write_gp_delay;
    static const MultiProgram figure3 =
        litmus_dsl::compileLitmusFile(WO_LITMUS_DIR "/figure3.litmus")
            .program;
    System sys(figure3, cfg);
    Fig3Point pt{};
    if (!sys.run()) {
        benchutil::bug("fig3 run failed to complete under " + toString(pk));
        return pt;
    }
    pt.p0_stall = sys.processor(0).stallCycles();
    pt.p1_stall = sys.processor(1).stallCycles();
    pt.finish = sys.finishTick();
    pt.sc = verifySc(sys.trace()).sc();
    return pt;
}

void
printFig3Table()
{
    benchutil::banner(
        "Figure 3: stall analysis, Definition 1 vs Definition 2 (DRF0)");
    benchutil::Table t({"write-GP delay", "Def1 P0 stall", "Def2 P0 stall",
                        "Def1 P1 stall", "Def2 P1 stall", "Def1 finish",
                        "Def2 finish"});
    for (Tick d : {Tick{0}, Tick{50}, Tick{100}, Tick{200}, Tick{400},
                   Tick{800}}) {
        Fig3Point d1 = runFig3(PolicyKind::Def1, d);
        Fig3Point d2 = runFig3(PolicyKind::Def2Drf0, d);
        if (!d1.sc || !d2.sc)
            benchutil::bug("fig3 execution not SC!");
        t.addRow({std::to_string(d), std::to_string(d1.p0_stall),
                  std::to_string(d2.p0_stall), std::to_string(d1.p1_stall),
                  std::to_string(d2.p1_stall), std::to_string(d1.finish),
                  std::to_string(d2.finish)});
    }
    t.print();
    std::cout <<
        "\nExpected shape: as the write takes longer to perform "
        "globally,\n  - Def1 P0's stall grows linearly (it waits at the "
        "Unset);\n  - Def2 P0's stall stays flat at zero (it commits the "
        "Unset and moves on);\n  - P1 is held up under BOTH (its "
        "TestAndSet needs the write globally\n    performed): under Def1 "
        "as issue stalls, under Def2 as spinning, so both\n    finish "
        "times grow with the delay while P0's freedom is the Def2 win.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    wo::benchutil::consumeBenchFlags(argc, argv);
    printFig3Table();
    return wo::benchutil::g_exitStatus;
}
