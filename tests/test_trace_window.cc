/**
 * @file
 * Windowed ExecutionTrace retention and the streaming DRF0 checker.
 *
 * Pins the bounded-retention invariants (retired + resident == size,
 * stable ids, numProcs() across popFront/popLast/clear, high-water
 * tracking, Release-build rejection of out-of-window pops), checks
 * deferred compaction against a naive rescan,
 * and proves the StreamingDrf0Checker byte-identical to the whole-trace
 * bitset oracle across window sizes — including windows so small that
 * every access is retired almost immediately.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/drf0_checker.hh"
#include "core/stream_checker.hh"
#include "core/trace.hh"
#include "sim/rng.hh"

namespace {

using namespace wo;

Access
mk(ProcId proc, int poIndex, AccessKind kind, Addr addr, Tick commit)
{
    Access a;
    a.proc = proc;
    a.poIndex = poIndex;
    a.kind = kind;
    a.addr = addr;
    a.commitTick = commit;
    a.gpTick = commit;
    return a;
}

/** Lock-structured synthetic trace in a (po U so) linear extension:
 * every 4th access per proc is a sync RMW on a global lock; data
 * accesses hit a small shared pool (racy) or a per-proc cell. */
ExecutionTrace
synthetic(int procs, int perProc, bool racy, std::uint64_t seed)
{
    Rng rng(seed);
    ExecutionTrace t;
    Tick now = 0;
    std::vector<int> po(static_cast<std::size_t>(procs), 0);
    for (int i = 0; i < perProc; ++i) {
        for (int p = 0; p < procs; ++p) {
            Access a;
            a.proc = p;
            a.poIndex = po[static_cast<std::size_t>(p)]++;
            if (i % 4 == 3) {
                a.kind = AccessKind::SyncRmw;
                a.addr = 1000;
            } else {
                a.kind = rng.chance(1, 2) ? AccessKind::DataWrite
                                          : AccessKind::DataRead;
                a.addr = racy ? static_cast<Addr>(rng.below(6))
                              : static_cast<Addr>(100 + p);
            }
            a.commitTick = now++;
            a.gpTick = a.commitTick;
            t.add(a);
        }
    }
    return t;
}

std::vector<Race>
sortedOracleRaces(const ExecutionTrace &t)
{
    Drf0TraceReport r = checkTraceBitset(t);
    std::vector<Race> races = r.races;
    std::sort(races.begin(), races.end());
    return races;
}

TEST(TraceWindow, PopFrontBasicInvariants)
{
    ExecutionTrace t;
    for (int i = 0; i < 10; ++i)
        t.add(mk(0, i, AccessKind::DataWrite, 5, i));
    EXPECT_EQ(t.size(), 10);
    EXPECT_EQ(t.firstId(), 0);
    EXPECT_EQ(t.resident(), 10);
    EXPECT_EQ(t.retired(), 0);
    EXPECT_EQ(t.windowHighWater(), 10);

    t.popFront(4);
    EXPECT_EQ(t.size(), 10);   // ids keep their meaning
    EXPECT_EQ(t.firstId(), 4);
    EXPECT_EQ(t.resident(), 6);
    EXPECT_EQ(t.retired(), 4);
    EXPECT_EQ(t.retired() + t.resident(), t.size());
    // Ids are stable: at(id) names the same access after retirement.
    for (int id = 4; id < 10; ++id)
        EXPECT_EQ(t.at(id).poIndex, id);

    // Appending after retirement keeps assigning dense ids.
    int id = t.add(mk(0, 10, AccessKind::DataRead, 5, 10));
    EXPECT_EQ(id, 10);
    EXPECT_EQ(t.size(), 11);
    EXPECT_EQ(t.retired() + t.resident(), t.size());
    EXPECT_EQ(t.windowHighWater(), 10); // never exceeded 10 resident
}

TEST(TraceWindow, HighWaterTracksMaxResident)
{
    ExecutionTrace t;
    for (int i = 0; i < 6; ++i)
        t.add(mk(0, i, AccessKind::DataWrite, 1, i));
    t.popFront(5);
    for (int i = 6; i < 14; ++i)
        t.add(mk(0, i, AccessKind::DataWrite, 1, i));
    // resident peaked at 1 + 8 = 9, not the 14 total appended
    EXPECT_EQ(t.windowHighWater(), 9);
    t.clear();
    EXPECT_EQ(t.windowHighWater(), 0);
    EXPECT_EQ(t.retired(), 0);
    EXPECT_EQ(t.firstId(), 0);
    EXPECT_EQ(t.size(), 0);
}

TEST(TraceWindow, PopFrontOutsideWindowThrowsNamingIt)
{
    ExecutionTrace t;
    for (int i = 0; i < 10; ++i)
        t.add(mk(0, i, AccessKind::DataWrite, 1, i));
    t.popFront(1); // leaves a retired prefix in storage
    for (int n : {-1, 10}) {
        try {
            t.popFront(n);
            FAIL() << "popFront(" << n << ") accepted on 9 resident";
        } catch (const std::logic_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("popFront(" + std::to_string(n) + ")"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("[0, 9]"), std::string::npos) << what;
        }
    }
    // A rejected call leaves the window untouched.
    EXPECT_EQ(t.firstId(), 1);
    EXPECT_EQ(t.resident(), 9);
    EXPECT_EQ(t.at(1).poIndex, 1);
    // The retired id is rejected even while it is still in storage.
    EXPECT_THROW(t.at(0), std::out_of_range);
    EXPECT_THROW(t.at(10), std::out_of_range);
}

TEST(TraceWindow, PopLastOnEmptyWindowThrows)
{
    ExecutionTrace t;
    EXPECT_THROW(t.popLast(), std::logic_error);
    t.add(mk(0, 0, AccessKind::DataWrite, 1, 0));
    t.add(mk(0, 1, AccessKind::DataWrite, 1, 1));
    t.popFront(2);
    EXPECT_THROW(t.popLast(), std::logic_error);
    EXPECT_EQ(t.size(), 2);
    EXPECT_EQ(t.resident(), 0);
}

/**
 * A plain-vector model of the windowed trace: every access ever added
 * (by id), the first resident id, and the counters, with numProcs()
 * after popLast() answered by a rescan of the resident range.
 */
struct NaiveTrace
{
    std::vector<Access> all;
    int base = 0;
    int procs = 0;
    int highWater = 0;

    int size() const { return static_cast<int>(all.size()); }
    int resident() const { return size() - base; }

    void add(Access a)
    {
        a.id = size();
        all.push_back(a);
        procs = std::max(procs, a.proc + 1);
        highWater = std::max(highWater, resident());
    }

    void popLast()
    {
        all.pop_back();
        auto present = [&](ProcId p) {
            for (int id = base; id < size(); ++id) {
                if (all[static_cast<std::size_t>(id)].proc == p)
                    return true;
            }
            return false;
        };
        while (procs > 0 && !present(procs - 1))
            --procs;
    }

    void clear() { *this = NaiveTrace(); }
};

void
expectSameAccess(const Access &got, const Access &want)
{
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.proc, want.proc);
    EXPECT_EQ(got.poIndex, want.poIndex);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.addr, want.addr);
    EXPECT_EQ(got.commitTick, want.commitTick);
}

TEST(TraceWindow, LazyIndexAndDeferredCompactionMatchNaiveRescan)
{
    // Seeded interleavings of add/popFront/popLast/clear, with every
    // counter and the resident view compared after each step. popLast
    // after a popFront must recount numProcs() from the resident window.
    constexpr AccessKind kinds[] = {
        AccessKind::DataRead, AccessKind::DataWrite, AccessKind::SyncRead,
        AccessKind::SyncWrite, AccessKind::SyncRmw};
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        ExecutionTrace t;
        NaiveTrace ref;
        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = rng.below(100);
            if (op < 55) {
                Access a;
                a.proc = rng.chance(1, 20)
                             ? kNoProc
                             : static_cast<ProcId>(rng.below(4));
                a.poIndex = ref.size() + static_cast<int>(rng.below(6));
                a.kind = kinds[rng.below(5)];
                a.addr = static_cast<Addr>(rng.below(5));
                a.commitTick = static_cast<Tick>(rng.below(50));
                a.gpTick = a.commitTick;
                ASSERT_EQ(t.add(a), ref.size());
                ref.add(a);
            } else if (op < 70) {
                const int n =
                    static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(ref.resident()) + 1));
                t.popFront(n);
                ref.base += n;
            } else if (op < 76) {
                if (ref.resident() == 0)
                    continue;
                t.popLast();
                ref.popLast();
            } else if (op < 78) {
                t.clear();
                ref.clear();
            }
            ASSERT_EQ(t.size(), ref.size()) << "seed " << seed;
            ASSERT_EQ(t.firstId(), ref.base);
            ASSERT_EQ(t.resident(), ref.resident());
            ASSERT_EQ(t.retired(), ref.base);
            ASSERT_EQ(t.numProcs(), ref.procs) << "seed " << seed;
            ASSERT_EQ(t.windowHighWater(), ref.highWater);
            std::span<const Access> view = t.accesses();
            ASSERT_EQ(view.size(), static_cast<std::size_t>(ref.resident()));
            for (int id = ref.base; id < ref.size(); ++id) {
                const Access &want = ref.all[static_cast<std::size_t>(id)];
                expectSameAccess(t.at(id), want);
                expectSameAccess(
                    view[static_cast<std::size_t>(id - ref.base)], want);
            }
        }
    }
}

TEST(TraceWindow, StreamingMatchesOracleAcrossWindowSizes)
{
    for (bool racy : {false, true}) {
        ExecutionTrace full = synthetic(3, 40, racy, 7);
        std::vector<Race> oracle = sortedOracleRaces(full);

        for (int window : {1, 7, 64}) {
            // Re-drive a windowed trace access by access; the add order
            // of synthetic() is a linear extension of (po U so), so the
            // onAccess fast path applies.
            ExecutionTrace wt;
            StreamingDrf0Checker chk(3, RaceDetectMode::AllRaces);
            for (int id = 0; id < full.size(); ++id) {
                wt.add(full.at(id));
                chk.onAccess(wt.at(id));
                int excess = wt.resident() - window;
                if (excess > 0)
                    wt.popFront(std::min(chk.retireReady(wt), excess));
            }
            chk.finish(wt);
            EXPECT_EQ(chk.raceFree(), oracle.empty())
                << "racy=" << racy << " window=" << window;
            EXPECT_EQ(chk.sortedRaces(), oracle)
                << "racy=" << racy << " window=" << window;
            // Satellite invariant: retired + resident == appended.
            EXPECT_EQ(wt.retired() + wt.resident(), wt.size());
            EXPECT_EQ(wt.size(), full.size());
            EXPECT_LE(wt.windowHighWater(), window + 1);
        }
    }
}

TEST(TraceWindow, FirstRaceVerdictMatchesOracleWindowed)
{
    for (bool racy : {false, true}) {
        ExecutionTrace full = synthetic(4, 32, racy, 11);
        bool oracleFree = checkTraceBitset(full).raceFree;
        ExecutionTrace wt;
        StreamingDrf0Checker chk(4, RaceDetectMode::FirstRace);
        for (int id = 0; id < full.size(); ++id) {
            wt.add(full.at(id));
            chk.onAccess(wt.at(id));
            int excess = wt.resident() - 8;
            if (excess > 0)
                wt.popFront(std::min(chk.retireReady(wt), excess));
        }
        chk.finish(wt);
        EXPECT_EQ(chk.raceFree(), oracleFree) << "racy=" << racy;
    }
}

TEST(TraceWindow, DrainWindowAdmitsOnlyFinalizedPrefix)
{
    // Simulator-shaped feeding: accesses appear in issue order and only
    // become final (commit/gp patched) later.
    ExecutionTrace t;
    StreamingDrf0Checker chk(2, RaceDetectMode::AllRaces);
    t.add(mk(0, 0, AccessKind::DataWrite, 1, 2));  // id 0
    Access pend = mk(1, 0, AccessKind::DataWrite, 1, kNoTick);
    pend.gpTick = kNoTick;
    t.add(pend);                                   // id 1, not final
    t.add(mk(0, 1, AccessKind::DataRead, 2, 4));   // id 2

    // Nothing after the pending access's proc prefix may be admitted on
    // proc 1; proc 0 is fully final and below now.
    chk.drainWindow(t, 100);
    EXPECT_EQ(chk.retireReady(t), 1); // only id 0 is a consumed prefix

    // Finalize id 1; everything becomes admissible.
    t.mutableAt(1).commitTick = 3;
    t.mutableAt(1).gpTick = 3;
    chk.drainWindow(t, 100);
    EXPECT_EQ(chk.frontier(), 3);
    chk.finish(t);
    EXPECT_FALSE(chk.raceFree()); // ids 0 and 1 conflict unordered
    std::vector<Race> expect{{0, 1}};
    EXPECT_EQ(chk.sortedRaces(), expect);
}

TEST(TraceWindow, DrainWindowRespectsHorizon)
{
    // An access committed at tick 50 must not be ordered while `now` is
    // below it — later syncs could still commit before it.
    ExecutionTrace t;
    StreamingDrf0Checker chk(1, RaceDetectMode::AllRaces);
    t.add(mk(0, 0, AccessKind::DataWrite, 1, 50));
    EXPECT_EQ(chk.drainWindow(t, 50), 0);
    EXPECT_EQ(chk.drainWindow(t, 51), 1);
    EXPECT_EQ(chk.frontier(), 1);
}

TEST(TraceWindow, FrontierHoldsAtBlockedProcessor)
{
    // Proc 0 runs ahead while proc 1's first access stays pending across
    // several drains: the consumed set is proc 0's prefix, but the
    // retirable prefix (and the frontier) must not pass proc 1's access.
    ExecutionTrace t;
    StreamingDrf0Checker chk(2, RaceDetectMode::AllRaces);
    t.add(mk(0, 0, AccessKind::DataWrite, 1, 1)); // id 0
    Access pend = mk(1, 0, AccessKind::DataWrite, 2, kNoTick);
    pend.gpTick = kNoTick;
    const int pending = t.add(pend); // id 1
    Tick tick = 2;
    int po = 1;
    for (int drain = 0; drain < 4; ++drain) {
        for (int k = 0; k < 3; ++k, ++tick)
            t.add(mk(0, po++, AccessKind::DataWrite, 3, tick));
        chk.drainWindow(t, tick);
        EXPECT_EQ(chk.frontier(), pending) << "drain " << drain;
        EXPECT_EQ(chk.retireReady(t), pending) << "drain " << drain;
        // Everything but the pending access has been consumed.
        EXPECT_EQ(chk.consumed(), static_cast<std::uint64_t>(t.size() - 1));
    }
    // Retiring the consumed prefix leaves the pending access resident.
    t.popFront(chk.retireReady(t));
    EXPECT_EQ(t.firstId(), pending);

    t.mutableAt(pending).commitTick = tick;
    t.mutableAt(pending).gpTick = tick;
    EXPECT_EQ(chk.drainWindow(t, tick + 1), 1);
    EXPECT_EQ(chk.frontier(), t.size());
    EXPECT_EQ(chk.retireReady(t), t.resident());
    EXPECT_TRUE(chk.raceFree()); // proc 1 alone touches address 2
}

TEST(TraceWindow, DrainRejectsAccessWithoutProcessor)
{
    // An access with no processor has no program order to place it in;
    // the drain must reject it by id rather than index a per-processor
    // table with -1.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 1, 1));
    t.add(mk(kNoProc, 0, AccessKind::DataWrite, 1, 2)); // id 1
    StreamingDrf0Checker chk(1, RaceDetectMode::AllRaces);
    try {
        chk.drainWindow(t, 10);
        FAIL() << "drainWindow accepted an access with no processor";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("access 1 "),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(chk.frontier(), 0);

    // The topological feed of finish() rejects it too, once anything
    // has been consumed out of trace order.
    ExecutionTrace u;
    u.add(mk(0, 0, AccessKind::DataWrite, 1, 1));
    StreamingDrf0Checker fin(1, RaceDetectMode::AllRaces);
    EXPECT_EQ(fin.drainWindow(u, 10), 1);
    u.add(mk(kNoProc, 0, AccessKind::DataWrite, 1, 2));
    EXPECT_THROW(fin.finish(u), std::invalid_argument);
}

TEST(TraceWindow, OnAccessRejectsMisorderedFeed)
{
    // The dense-id precondition holds in Release builds too: a skipped
    // or repeated id would let the owner retire an unchecked access.
    ExecutionTrace t;
    for (int i = 0; i < 3; ++i)
        t.add(mk(0, i, AccessKind::DataWrite, 1, i));
    StreamingDrf0Checker chk(1, RaceDetectMode::AllRaces);
    chk.onAccess(t.at(0));
    EXPECT_THROW(chk.onAccess(t.at(2)), std::logic_error);
    EXPECT_THROW(chk.onAccess(t.at(0)), std::logic_error);
    EXPECT_EQ(chk.frontier(), 1);
    EXPECT_EQ(chk.retireReady(t), 1);
    chk.onAccess(t.at(1));
    EXPECT_EQ(chk.frontier(), 2);
}

TEST(TraceWindow, FinishRejectsCyclicLeftovers)
{
    // Artificial (po U so) cycle: po a->b, c->d with so d->a and b->c
    // (sync commit order at each location opposes program order).
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncRmw, 10, 10)); // a, id 0
    t.add(mk(0, 1, AccessKind::SyncRmw, 20, 0));  // b, id 1
    t.add(mk(1, 0, AccessKind::SyncRmw, 20, 5));  // c, id 2
    t.add(mk(1, 1, AccessKind::SyncRmw, 10, 5));  // d, id 3

    EXPECT_FALSE(HappensBefore(t).acyclic());

    StreamingDrf0Checker chk(2, RaceDetectMode::AllRaces);
    EXPECT_THROW(chk.finish(t), std::invalid_argument);
}

} // namespace
