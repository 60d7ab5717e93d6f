/**
 * @file
 * Two-level (private L1 + private L2) hierarchy tests: fills route
 * through the L2, inclusion holds under L2 pressure (back-probes), and
 * the registered two-level machines behave like their one-level
 * counterparts at the memory-model level.
 */

#include <gtest/gtest.h>

#include <string>

#include "coherence/cache.hh"
#include "cpu/program_builder.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wo {
namespace {

using litmus_dsl::compileLitmusFile;
using litmus_dsl::evalCond;

LineState
l1StateOf(System &sys, ProcId p, Addr addr)
{
    LineState st = LineState::Invalid;
    Word data = 0;
    if (!sys.cache(p) || !sys.cache(p)->peekLine(addr, &st, &data))
        return LineState::Invalid;
    return st;
}

TEST(Hierarchy, TwoLevelMachinesForbidScViolationsAndAuditClean)
{
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    for (const char *m : {"bus-l2", "net-l2", "net-l2-moesi"}) {
        SCOPED_TRACE(m);
        SystemConfig cfg = machineOrThrow(m).config(PolicyKind::Sc, 7);
        ASSERT_EQ(cfg.cacheLevels, 2);
        System sys(sb.program, cfg);
        EXPECT_TRUE(sys.run());
        EXPECT_FALSE(evalCond(sb.clause.cond, sys.result(), sb.addrOf));
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

TEST(Hierarchy, TwoLevelMachinesDeliverSyncMessagePassing)
{
    for (const char *m : {"bus-l2", "net-l2", "net-l2-moesi"}) {
        SCOPED_TRACE(m);
        SystemConfig cfg =
            machineOrThrow(m).config(PolicyKind::Def2Drf0, 11);
        System sys(syncMessagePassing(), cfg);
        ASSERT_TRUE(sys.run());
        // P1's data read must see the 42 published before the flag.
        EXPECT_EQ(sys.result().registers.at(1).at(1), 42u);
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

TEST(Hierarchy, VictimLinesAreServedFromTheL2)
{
    // Tiny L1 (1 set, 1 way) over a roomy L2: two conflicting lines
    // ping-pong out of the L1 but stay resident in the L2, so the
    // second touch of each line is an L2 hit, not a directory round
    // trip.
    MultiProgram mp("l1-thrash");
    ProgramBuilder b;
    b.load(0, 0).load(1, 2).load(2, 0).load(3, 2).halt();
    mp.addProgram(b.build());
    mp.setInitial(0, 5);
    mp.setInitial(2, 6);

    SystemConfig cfg = machineOrThrow("net-l2").config(PolicyKind::Sc);
    cfg.cache.numSets = 1;
    cfg.cache.ways = 1;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    RunResult r = sys.result();
    EXPECT_EQ(r.registers.at(0).at(2), 5u);
    EXPECT_EQ(r.registers.at(0).at(3), 6u);
    EXPECT_GE(sys.stats().get("l2cache0.hits"), 2u);
    // Only the two cold fills ever left the L2.
    EXPECT_EQ(sys.stats().get("l2cache0.misses"), 2u);
    EXPECT_EQ(sys.stats().get("dir0.requests"), 2u);
    EXPECT_TRUE(sys.auditCoherence().empty());
}

TEST(Hierarchy, L2EvictionProbesTheL1ToKeepInclusion)
{
    // Tiny L2 (1 set, 1 way) under an unbounded L1: bringing in a
    // second line forces the L2 to evict the first, and inclusion
    // requires it to recall the L1's dirty copy first (back-probe +
    // writeback), leaving the L1 invalid for that line.
    MultiProgram mp("l2-pressure");
    ProgramBuilder b;
    b.store(0, 5).store(2, 6).load(0, 0).halt();
    mp.addProgram(b.build());

    SystemConfig cfg = machineOrThrow("net-l2").config(PolicyKind::Sc);
    cfg.l2.numSets = 1;
    cfg.l2.ways = 1;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    // The reload still sees the written value (it round-tripped through
    // the directory's memory image).
    EXPECT_EQ(sys.result().registers.at(0).at(0), 5u);
    // Both dirty lines round-tripped through the directory: line 0
    // evicted for line 2, then line 2 evicted for the reload of 0.
    EXPECT_EQ(sys.stats().get("l2cache0.writebacks"), 2u);
    // Inclusion: the line the L2 evicted must be gone from the L1 too;
    // the reloaded one is present in both.
    EXPECT_EQ(l1StateOf(sys, 0, 2), LineState::Invalid);
    EXPECT_NE(l1StateOf(sys, 0, 0), LineState::Invalid);
    EXPECT_TRUE(sys.auditCoherence().empty());
}

TEST(Hierarchy, MesifRunsTwoLevelToo)
{
    // No registered MESIF two-level machine, but the combination must
    // work — the registry is a convenience, not a constraint.
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    SystemConfig cfg =
        machineOrThrow("net-cold").config(PolicyKind::Sc, 13);
    cfg.protocol = ProtocolKind::Mesif;
    cfg.cacheLevels = 2;
    System sys(sb.program, cfg);
    EXPECT_TRUE(sys.run());
    EXPECT_FALSE(evalCond(sb.clause.cond, sys.result(), sb.addrOf));
    EXPECT_TRUE(sys.auditCoherence().empty());
}

TEST(Hierarchy, BoundedBothLevelsStaysCoherentUnderContention)
{
    // Both levels bounded and four processors fighting over a lock:
    // the eviction-probe, deferred-probe and recall-race machinery all
    // get exercised. Correctness bar: the lock still serializes.
    for (const char *m : {"bus-l2", "net-l2", "net-l2-moesi"}) {
        SCOPED_TRACE(m);
        SystemConfig cfg =
            machineOrThrow(m).config(PolicyKind::Def2Drf0, 7);
        cfg.cache.numSets = 2;
        cfg.cache.ways = 1;
        cfg.l2.numSets = 2;
        cfg.l2.ways = 2;
        System sys(tasLockCounter(4, 2), cfg);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(sys.result().finalMemory.at(0), 8u);
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

} // namespace
} // namespace wo
