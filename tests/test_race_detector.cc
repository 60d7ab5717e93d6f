/**
 * @file
 * Unit tests for the streaming vector-clock race detector and its
 * VectorClock/Epoch primitives.
 *
 * Traces here are fed in trace order, which the tests construct to be a
 * linear extension of (po U so) — the same contract checkTrace() grants
 * the detector for idealized-machine traces.
 */

#include <gtest/gtest.h>

#include "core/drf0_checker.hh"
#include "core/race_detector.hh"
#include "core/trace.hh"
#include "core/vector_clock.hh"

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

/** Feed a trace to a fresh detector in trace order. */
RaceDetector
feed(const ExecutionTrace &t, RaceDetectMode mode)
{
    RaceDetector det(t.numProcs(), mode);
    for (const Access &a : t.accesses())
        det.onAccess(a);
    return det;
}

TEST(VectorClock, StartsAtZeroAndTicks)
{
    VectorClock vc;
    EXPECT_EQ(vc.get(0), 0u);
    EXPECT_EQ(vc.get(7), 0u); // unmaterialized entries read as zero
    EXPECT_EQ(vc.tick(2), 1u);
    EXPECT_EQ(vc.tick(2), 2u);
    EXPECT_EQ(vc.get(2), 2u);
    EXPECT_EQ(vc.get(1), 0u);
    EXPECT_GE(vc.size(), 3);
}

TEST(VectorClock, JoinTakesPointwiseMax)
{
    VectorClock a, b;
    a.tick(0);
    a.tick(0);
    b.tick(1);
    b.tick(2);
    b.tick(2);
    a.join(b);
    EXPECT_EQ(a.get(0), 2u);
    EXPECT_EQ(a.get(1), 1u);
    EXPECT_EQ(a.get(2), 2u);
    // Joining a shorter clock must not shrink the longer one.
    VectorClock c;
    c.tick(0);
    a.join(c);
    EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, CoversEpoch)
{
    VectorClock vc;
    vc.tick(1);
    vc.tick(1);
    Epoch e;
    e.clock = 2;
    e.proc = 1;
    EXPECT_TRUE(vc.covers(e));
    e.clock = 3;
    EXPECT_FALSE(vc.covers(e));
    e.proc = 5; // beyond materialized entries
    e.clock = 1;
    EXPECT_FALSE(vc.covers(e));
}

TEST(VectorClock, ClearKeepsZeroSemantics)
{
    VectorClock vc;
    vc.tick(3);
    vc.clear();
    EXPECT_EQ(vc.get(3), 0u);
    Epoch unset;
    EXPECT_FALSE(unset.some());
}

TEST(RaceDetector, UnorderedConflictingAccessesRace)
{
    ExecutionTrace t;
    int w = t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    int r = t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    RaceDetector det = feed(t, RaceDetectMode::FirstRace);
    EXPECT_TRUE(det.hasRace());
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_EQ(det.races()[0].first, w);
    EXPECT_EQ(det.races()[0].second, r);
}

TEST(RaceDetector, SyncChainOrdersConflict)
{
    // W(P0,x) po S(P0,s) so S(P1,s) po R(P1,x): race-free.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 1, 2));
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    EXPECT_FALSE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SyncOnOtherLocationDoesNotOrder)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 2, 2)); // different sync location
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    EXPECT_TRUE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, ReadsDoNotRaceWithReads)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataRead, 0, 0));
    t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    t.add(mk(2, 0, AccessKind::DataRead, 0, 2));
    EXPECT_FALSE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SyncSyncSameLocationNeverRaces)
{
    // so totally orders sync ops on one location regardless of kind.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncWrite, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    t.add(mk(2, 0, AccessKind::SyncRead, 7, 2));
    EXPECT_FALSE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SyncDataConflictIsRace)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    EXPECT_TRUE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SharedReadsThenUnorderedWriteRacesWithEach)
{
    // Two concurrent readers, then an unordered writer: AllRaces must
    // report the write against BOTH reads (read-shared state).
    ExecutionTrace t;
    int r0 = t.add(mk(0, 0, AccessKind::DataRead, 5, 0));
    int r1 = t.add(mk(1, 0, AccessKind::DataRead, 5, 1));
    int w = t.add(mk(2, 0, AccessKind::DataWrite, 5, 2));
    RaceDetector det = feed(t, RaceDetectMode::AllRaces);
    ASSERT_EQ(det.races().size(), 2u);
    EXPECT_EQ(det.races()[0], (Race{r0, w}));
    EXPECT_EQ(det.races()[1], (Race{r1, w}));
}

TEST(RaceDetector, FirstRaceModeStopsAtFirst)
{
    // Three mutually racing writes: FirstRace keeps exactly one pair.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(1, 0, AccessKind::DataWrite, 0, 1));
    t.add(mk(2, 0, AccessKind::DataWrite, 0, 2));
    RaceDetector first = feed(t, RaceDetectMode::FirstRace);
    RaceDetector all = feed(t, RaceDetectMode::AllRaces);
    EXPECT_EQ(first.races().size(), 1u);
    EXPECT_EQ(all.races().size(), 3u);
}

TEST(RaceDetector, ResetReusesCleanly)
{
    ExecutionTrace racy;
    racy.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    racy.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    RaceDetector det(2, RaceDetectMode::FirstRace);
    for (const Access &a : racy.accesses())
        det.onAccess(a);
    ASSERT_TRUE(det.hasRace());
    det.reset(2);
    EXPECT_FALSE(det.hasRace());
    EXPECT_EQ(det.accessesSeen(), 0u);
    // The same location, now properly synchronized, must stay clean:
    // stale write epochs from before reset() may not leak through.
    ExecutionTrace clean;
    clean.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    clean.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    clean.add(mk(1, 0, AccessKind::SyncRmw, 1, 2));
    clean.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    for (const Access &a : clean.accesses())
        det.onAccess(a);
    EXPECT_FALSE(det.hasRace());
}

TEST(RaceDetector, ResetForgetsReleaseClocks)
{
    // Before reset, P0 runs ahead and releases sync location 9 at a high
    // P0 clock. After reset, P1's sync at 9 must acquire nothing: a stale
    // release clock would cover P0's fresh write and hide the race.
    RaceDetector det(2, RaceDetectMode::FirstRace);
    ExecutionTrace before;
    for (int i = 0; i < 3; ++i)
        before.add(mk(0, i, AccessKind::DataWrite, 2, i));
    before.add(mk(0, 3, AccessKind::SyncWrite, 9, 3));
    for (const Access &a : before.accesses())
        det.onAccess(a);
    ASSERT_FALSE(det.hasRace());

    det.reset(2);
    ExecutionTrace after;
    int w0 = after.add(mk(0, 0, AccessKind::DataWrite, 1, 0));
    after.add(mk(1, 0, AccessKind::SyncRead, 9, 1));
    int w1 = after.add(mk(1, 1, AccessKind::DataWrite, 1, 2));
    for (const Access &a : after.accesses())
        det.onAccess(a);
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_EQ(det.races()[0], (Race{w0, w1}));
}

TEST(RaceDetector, DataAccessDoesNotAcquireSyncRelease)
{
    // P0 writes location 4 as data, then releases it with a sync read.
    // P1's data write to 4 is ordered after neither: only sync accesses
    // acquire a location's release clock, so the data/data pair races.
    ExecutionTrace t;
    int w0 = t.add(mk(0, 0, AccessKind::DataWrite, 4, 0));
    int s0 = t.add(mk(0, 1, AccessKind::SyncRead, 4, 1));
    int w1 = t.add(mk(1, 0, AccessKind::DataWrite, 4, 2));
    RaceDetector first = feed(t, RaceDetectMode::FirstRace);
    ASSERT_EQ(first.races().size(), 1u);
    EXPECT_EQ(first.races()[0], (Race{w0, w1}));
    RaceDetector all = feed(t, RaceDetectMode::AllRaces);
    EXPECT_EQ(all.races(), (std::vector<Race>{{w0, w1}, {s0, w1}}));
}

TEST(RaceDetector, GrowsWithUnseenProcessors)
{
    // Constructed for 1 processor but fed accesses from processor 3.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(3, 0, AccessKind::DataWrite, 0, 1));
    RaceDetector det(1, RaceDetectMode::AllRaces);
    for (const Access &a : t.accesses())
        det.onAccess(a);
    EXPECT_TRUE(det.hasRace());
}

TEST(RaceDetector, InitializingWritesAreIgnored)
{
    // proc == kNoProc models the paper's hypothetical initializing
    // writes; they precede everything and must not race.
    Access init = mk(kNoProc, -1, AccessKind::DataWrite, 0, 0);
    init.id = 0;
    RaceDetector det(2, RaceDetectMode::AllRaces);
    det.onAccess(init);
    Access r = mk(0, 0, AccessKind::DataRead, 0, 1);
    r.id = 1;
    det.onAccess(r);
    EXPECT_FALSE(det.hasRace());
    EXPECT_EQ(det.accessesSeen(), 1u);
}

TEST(Drf0Trace, CyclicHbIsRejected)
{
    // Artificial (po U so) cycle — no machine can produce one, and it
    // has no happens-before order to check, so the checker must reject
    // it instead of reporting races against a partial order: po gives
    // sa->sb and ta->tb while commit ticks give the so edges tb->sa
    // (location 100) and sb->ta (location 101).
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncWrite, 100, 10));
    t.add(mk(0, 1, AccessKind::SyncWrite, 101, 1));
    t.add(mk(1, 0, AccessKind::SyncWrite, 101, 5));
    t.add(mk(1, 1, AccessKind::SyncWrite, 100, 2));
    EXPECT_THROW(checkTrace(t), std::invalid_argument);
    EXPECT_FALSE(HappensBefore(t).acyclic());
}

} // namespace
} // namespace wo
