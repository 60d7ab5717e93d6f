/**
 * @file
 * Unit tests for ExecutionTrace, Access and RunResult.
 */

#include <gtest/gtest.h>

#include "core/sc_verifier.hh"
#include "core/trace.hh"

namespace wo {
namespace {

Access
mk(ProcId proc, int po, AccessKind kind, Addr addr, Tick commit)
{
    Access a;
    a.proc = proc;
    a.poIndex = po;
    a.kind = kind;
    a.addr = addr;
    a.commitTick = commit;
    a.gpTick = commit;
    return a;
}

TEST(AccessUnit, ConflictRules)
{
    Access r1 = mk(0, 0, AccessKind::DataRead, 5, 0);
    Access r2 = mk(1, 0, AccessKind::DataRead, 5, 1);
    Access w = mk(1, 0, AccessKind::DataWrite, 5, 1);
    Access w_other = mk(1, 0, AccessKind::DataWrite, 6, 1);
    Access rmw = mk(2, 0, AccessKind::SyncRmw, 5, 2);
    EXPECT_FALSE(conflict(r1, r2)); // both reads
    EXPECT_TRUE(conflict(r1, w));
    EXPECT_TRUE(conflict(w, w));
    EXPECT_FALSE(conflict(w, w_other)); // different locations
    EXPECT_TRUE(conflict(r1, rmw));     // rmw has a write component
    EXPECT_TRUE(conflict(rmw, rmw));
}

TEST(AccessUnit, ComponentPredicates)
{
    EXPECT_TRUE(mk(0, 0, AccessKind::SyncRmw, 0, 0).reads());
    EXPECT_TRUE(mk(0, 0, AccessKind::SyncRmw, 0, 0).writes());
    EXPECT_TRUE(mk(0, 0, AccessKind::SyncRmw, 0, 0).sync());
    EXPECT_FALSE(mk(0, 0, AccessKind::DataWrite, 0, 0).reads());
    EXPECT_FALSE(mk(0, 0, AccessKind::DataRead, 0, 0).sync());
}

TEST(AccessUnit, ToStringMentionsEverything)
{
    Access a = mk(2, 1, AccessKind::SyncRmw, 7, 33);
    a.valueRead = 4;
    a.valueWritten = 5;
    std::string s = a.toString();
    EXPECT_NE(s.find("P2"), std::string::npos);
    EXPECT_NE(s.find("[7]"), std::string::npos);
    EXPECT_NE(s.find("->4"), std::string::npos);
    EXPECT_NE(s.find("<-5"), std::string::npos);
}

TEST(TraceUnit, IdsAreSequential)
{
    ExecutionTrace t;
    EXPECT_EQ(t.add(mk(0, 0, AccessKind::DataRead, 0, 0)), 0);
    EXPECT_EQ(t.add(mk(0, 1, AccessKind::DataRead, 0, 1)), 1);
    EXPECT_EQ(t.size(), 2);
    t.popLast();
    EXPECT_EQ(t.size(), 1);
    EXPECT_EQ(t.add(mk(0, 1, AccessKind::DataRead, 0, 1)), 1);
}

TEST(TraceUnit, AccessesOfSortsByProgramOrder)
{
    ExecutionTrace t;
    t.add(mk(0, 2, AccessKind::DataRead, 0, 9));
    t.add(mk(0, 0, AccessKind::DataRead, 0, 3));
    t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    t.add(mk(0, 1, AccessKind::DataRead, 0, 6));
    std::vector<int> ids = t.accessesOf(0);
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(t.at(ids[0]).poIndex, 0);
    EXPECT_EQ(t.at(ids[1]).poIndex, 1);
    EXPECT_EQ(t.at(ids[2]).poIndex, 2);
}

TEST(TraceUnit, SyncsAtSortsByCommitWithStableTies)
{
    ExecutionTrace t;
    int late = t.add(mk(0, 0, AccessKind::SyncWrite, 4, 50));
    int early = t.add(mk(1, 0, AccessKind::SyncWrite, 4, 10));
    int tie_a = t.add(mk(2, 0, AccessKind::SyncWrite, 4, 20));
    int tie_b = t.add(mk(3, 0, AccessKind::SyncWrite, 4, 20));
    t.add(mk(0, 1, AccessKind::DataWrite, 4, 5)); // not a sync
    std::vector<int> ids = t.syncsAt(4);
    ASSERT_EQ(ids.size(), 4u);
    EXPECT_EQ(ids[0], early);
    EXPECT_EQ(ids[1], tie_a);
    EXPECT_EQ(ids[2], tie_b);
    EXPECT_EQ(ids[3], late);
}

TEST(TraceUnit, InitialsDefaultZero)
{
    ExecutionTrace t;
    EXPECT_EQ(t.initialValue(9), 0u);
    t.setInitial(9, 4);
    EXPECT_EQ(t.initialValue(9), 4u);
}

TEST(TraceUnit, NumProcsIgnoresInitWrites)
{
    ExecutionTrace t;
    t.add(mk(kNoProc, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(2, 0, AccessKind::DataWrite, 0, 1));
    EXPECT_EQ(t.numProcs(), 3);
}

TEST(RunResultUnit, EqualityAndOrdering)
{
    RunResult a, b;
    a.finalMemory[0] = 1;
    b.finalMemory[0] = 1;
    a.registers = {{1, 2}};
    b.registers = {{1, 2}};
    a.allHalted = b.allHalted = true;
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a < b);
    EXPECT_FALSE(b < a);
    b.registers[0][1] = 3;
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(a < b || b < a);
}

TEST(RunResultUnit, ToStringIsReadable)
{
    RunResult r;
    r.finalMemory[3] = 7;
    r.registers = {{1}, {2}};
    r.allHalted = false;
    std::string s = r.toString();
    EXPECT_NE(s.find("[3]=7"), std::string::npos);
    EXPECT_NE(s.find("not halted"), std::string::npos);
}

TEST(ContractUnit, CheckExecutionWithoutOutcomeSet)
{
    // A one-processor store-then-load trace appears SC on its own: the
    // trace-level half of the contract needs no program.
    ExecutionTrace t;
    Access w = mk(0, 0, AccessKind::DataWrite, 0, 0);
    w.valueWritten = 1;
    t.add(w);
    Access r = mk(0, 1, AccessKind::DataRead, 0, 1);
    r.valueRead = 1;
    t.add(r);
    EXPECT_TRUE(verifySc(t).sc());
}

} // namespace
} // namespace wo
