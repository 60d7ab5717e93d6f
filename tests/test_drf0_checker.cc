/**
 * @file
 * Unit tests for the DRF0 checker (Definition 3) on traces and programs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/drf0_checker.hh"
#include "cpu/program_builder.hh"
#include "idealized_paths.hh"

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

TEST(Drf0Trace, OrderedConflictIsRaceFree)
{
    // W(P0,x) -> S(P0,s) -> S(P1,s) -> R(P1,x): ordered by hb.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 1, 2));
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    Drf0TraceReport r = checkTrace(t);
    EXPECT_TRUE(r.raceFree);
    EXPECT_TRUE(r.races.empty());
}

TEST(Drf0Trace, UnorderedConflictIsRace)
{
    ExecutionTrace t;
    int w = t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    int r = t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    Drf0TraceReport rep = checkTrace(t);
    EXPECT_FALSE(rep.raceFree);
    ASSERT_EQ(rep.races.size(), 1u);
    EXPECT_EQ(rep.races[0].first, w);
    EXPECT_EQ(rep.races[0].second, r);
}

TEST(Drf0Trace, ConcurrentReadsDoNotRace)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataRead, 0, 0));
    t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    EXPECT_TRUE(checkTrace(t).raceFree);
}

TEST(Drf0Trace, ConcurrentSyncsSameLocationDoNotRace)
{
    // Syncs to the same location are always so-ordered.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncRmw, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    EXPECT_TRUE(checkTrace(t).raceFree);
}

TEST(Drf0Trace, SyncOnOneLocationDoesNotOrderOtherLocation)
{
    // P0: W(x) S(a).  P1: S(b) R(x).  Different sync locations: race.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 2, 2));
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    EXPECT_FALSE(checkTrace(t).raceFree);
}

TEST(Drf0Trace, WriteWriteConflictDetected)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(1, 0, AccessKind::DataWrite, 0, 1));
    Drf0TraceReport rep = checkTrace(t);
    EXPECT_FALSE(rep.raceFree);
}

TEST(Drf0Trace, SyncDataConflictOnSameLocationIsRace)
{
    // A data access racing with a sync access to the same location is
    // still a race under DRF0 (so only orders sync-sync pairs).
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    EXPECT_FALSE(checkTrace(t).raceFree);
}

/** Two processors each spin-acquire lock 1 with TAS, write 0, unlock. */
MultiProgram
spinLocked()
{
    MultiProgram mp("spinlocked");
    const Addr X = 0, L = 1;
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        b.label("acq")
            .tas(0, L)
            .bne(0, 0, "acq")
            .store(X, static_cast<Word>(p + 1))
            .unset(L)
            .halt();
        mp.addProgram(b.build());
    }
    return mp;
}

TEST(Drf0Program, ProperlyLockedProgramObeysDrf0)
{
    // Both processors try once to TAS-acquire a lock; only a holder
    // writes x.
    MultiProgram mp("locked");
    const Addr X = 0, L = 1;
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        b.tas(0, L)
            .bne(0, 0, "skip")
            .store(X, static_cast<Word>(p + 1))
            .unset(L)
            .label("skip")
            .halt();
        mp.addProgram(b.build());
    }
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_TRUE(r.obeysDrf0) << r.witnessReport.toString(r.witness);
    EXPECT_FALSE(r.bounded);
    EXPECT_GT(r.states, 0u);
}

TEST(Drf0Program, SpinLockProgramSampledIsRaceFree)
{
    // The unbounded-spin version: the state search ends (spins revisit
    // states) with an exact verdict, and no sampled schedule races.
    MultiProgram mp = spinLocked();
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_TRUE(r.obeysDrf0) << r.witnessReport.toString(r.witness);
    EXPECT_FALSE(r.bounded);
    ExecutionTrace walk;
    EXPECT_TRUE(randomWalkRace(mp, 7, 200, walk).raceFree);
}

TEST(Drf0Program, SampledCheckFindsObviousRace)
{
    MultiProgram mp("racy");
    ProgramBuilder p0, p1;
    p0.store(0, 1).halt();
    p1.load(0, 0).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    ExecutionTrace walk;
    EXPECT_FALSE(randomWalkRace(mp, 3, 50, walk).raceFree);
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_FALSE(r.obeysDrf0);
    EXPECT_FALSE(r.bounded);
    // The race is pending in the initial state.
    EXPECT_EQ(r.states, 1u);
}

TEST(Drf0Program, DekkerViolatesDrf0)
{
    MultiProgram mp("dekker");
    ProgramBuilder p1, p2;
    p1.store(0, 1).load(0, 1).halt();
    p2.store(1, 1).load(0, 0).halt();
    mp.addProgram(p1.build());
    mp.addProgram(p2.build());
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_FALSE(r.obeysDrf0);
    EXPECT_FALSE(r.witnessReport.raceFree);
    EXPECT_GT(r.witness.size(), 0);
}

TEST(Drf0Program, WitnessEndsWithTheRacingPair)
{
    // P1's racing store to 0 only becomes pending after both processors
    // pass their sync on 1, so the witness carries that path first.
    MultiProgram mp("late-race");
    ProgramBuilder p0, p1;
    p0.unset(1, 1).load(0, 0).halt();
    p1.test(0, 1).store(0, 7).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    Drf0ProgramReport r = checkProgram(mp);
    ASSERT_FALSE(r.obeysDrf0);
    const ExecutionTrace &w = r.witness;
    ASSERT_GE(w.size(), 2);
    Race last{w.at(w.size() - 2).id, w.at(w.size() - 1).id};
    EXPECT_TRUE(conflict(w.at(last.first), w.at(last.second)));
    for (const Drf0TraceReport &rep : {r.witnessReport, checkTraceBitset(w)})
        EXPECT_NE(std::find(rep.races.begin(), rep.races.end(), last),
                  rep.races.end())
            << rep.toString(w);
}

TEST(Drf0Program, SingleProcessorAlwaysDrf0)
{
    MultiProgram mp("solo");
    ProgramBuilder b;
    b.store(0, 1).load(0, 0).store(0, 2).halt();
    mp.addProgram(b.build());
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_TRUE(r.obeysDrf0);
}

TEST(Drf0Program, FlagSpinWithDataReadIsRacy)
{
    // Spinning on an ordinary data read (the barrier-count example of
    // Section 6) is NOT allowed by DRF0.
    MultiProgram mp("flagspin");
    const Addr F = 0;
    ProgramBuilder p0, p1;
    p0.label("spin").load(0, F).beq(0, 0, "spin").halt();
    p1.store(F, 1).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_FALSE(r.obeysDrf0);
    EXPECT_FALSE(r.bounded);
}

TEST(Drf0Program, FlagSpinWithSyncOpsIsDrf0)
{
    // The same spin, but communicating through sync operations, is fine.
    MultiProgram mp("syncspin");
    const Addr F = 0;
    ProgramBuilder p0, p1;
    p0.label("spin").test(0, F).beq(0, 0, "spin").halt();
    p1.unset(F, 1).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    Drf0ProgramReport r = checkProgram(mp);
    // Unfair schedules spin forever, but they revisit finitely many
    // states, so the verdict is exact.
    EXPECT_TRUE(r.obeysDrf0);
    EXPECT_FALSE(r.bounded);
}

TEST(Drf0Program, StateCapMakesVerdictBounded)
{
    EnumLimits lim;
    lim.maxStates = 3;
    Drf0ProgramReport r = checkProgram(spinLocked(), lim);
    EXPECT_TRUE(r.obeysDrf0);
    EXPECT_TRUE(r.bounded);
    EXPECT_EQ(r.states, 3u);
}

} // namespace
} // namespace wo
