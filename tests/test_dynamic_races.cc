/**
 * @file
 * Dynamic race detection on *hardware* executions: the happens-before
 * checker applied to traces recorded by the simulator (synchronization
 * order taken from commit times), the workflow of the companion
 * "Detecting Data Races on Weak Memory Systems" line of work the paper
 * cites as ongoing ([NeM89]).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/drf0_checker.hh"
#include "litmus/compiler.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

TEST(DynamicRaces, Drf0WorkloadTracesAreRaceFreeOnAllPolicies)
{
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            RandomWorkloadConfig w;
            w.numProcs = 3;
            w.seed = seed;
            SystemConfig cfg;
            cfg.policy = pk;
            cfg.net.seed = seed + 5;
            System sys(randomDrf0Program(w), cfg);
            ASSERT_TRUE(sys.run());
            Drf0TraceReport rep = checkTrace(sys.trace());
            EXPECT_TRUE(rep.raceFree)
                << toString(pk) << " seed " << seed << "\n"
                << rep.toString(sys.trace());
        }
    }
}

TEST(DynamicRaces, RacyWorkloadTracesAreFlagged)
{
    int flagged = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        RandomWorkloadConfig w;
        w.numProcs = 3;
        w.seed = seed;
        SystemConfig cfg;
        cfg.policy = PolicyKind::Def2Drf0;
        cfg.net.seed = seed + 5;
        System sys(randomRacyProgram(w, 3), cfg);
        ASSERT_TRUE(sys.run());
        if (!checkTrace(sys.trace()).raceFree)
            ++flagged;
    }
    EXPECT_GE(flagged, 5);
}

TEST(DynamicRaces, DekkerTraceOnScHardwareStillRacy)
{
    // Race-freedom is a property of the program, not the machine: even a
    // sequentially consistent run of Dekker contains unordered
    // conflicting accesses.
    const litmus_dsl::CompiledLitmus sb = litmus_dsl::compileLitmusFile(
        std::string(WO_LITMUS_DIR) + "/sb.litmus");
    SystemConfig cfg;
    cfg.policy = PolicyKind::Sc;
    System sys(sb.program, cfg);
    ASSERT_TRUE(sys.run());
    Drf0TraceReport rep = checkTrace(sys.trace());
    EXPECT_FALSE(rep.raceFree);
    EXPECT_GE(rep.races.size(), 2u);
}

TEST(DynamicRaces, SyncMessagePassingTraceOrdersTheConflict)
{
    const litmus_dsl::CompiledLitmus mp =
        litmus_dsl::compileLitmusFile(WO_LITMUS_DIR "/mp_sync.litmus");
    const Addr data = mp.addrOf.at("data");
    SystemConfig cfg;
    cfg.policy = PolicyKind::Def2Drf0;
    System sys(mp.program, cfg);
    ASSERT_TRUE(sys.run());
    const ExecutionTrace &t = sys.trace();
    Drf0TraceReport rep = checkTrace(t);
    EXPECT_TRUE(rep.raceFree) << rep.toString(t);
    // The W(data) and R(data) are hb-ordered through the flag syncs.
    HappensBefore hb(t);
    int w = -1, r = -1;
    for (const auto &a : t.accesses()) {
        if (a.addr == data && a.kind == AccessKind::DataWrite)
            w = a.id;
        if (a.addr == data && a.kind == AccessKind::DataRead)
            r = a.id;
    }
    ASSERT_GE(w, 0);
    ASSERT_GE(r, 0);
    EXPECT_TRUE(hb.ordered(w, r));
}

TEST(DynamicRaces, BarrierTraceRaceFreeOnWeakHardware)
{
    SystemConfig cfg;
    cfg.policy = PolicyKind::Def2Drf1;
    System sys(barrier(4), cfg);
    ASSERT_TRUE(sys.run());
    Drf0TraceReport rep = checkTrace(sys.trace());
    EXPECT_TRUE(rep.raceFree) << rep.toString(sys.trace());
}

} // namespace
} // namespace wo
