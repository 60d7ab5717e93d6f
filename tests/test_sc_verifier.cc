/**
 * @file
 * Unit tests for the sequential-consistency verifier, and for reusing
 * one ScVerifier workspace across traces of different shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

namespace wo {
namespace {

Access
rd(ProcId proc, int po, Addr addr, Word value)
{
    Access a;
    a.proc = proc;
    a.poIndex = po;
    a.kind = AccessKind::DataRead;
    a.addr = addr;
    a.valueRead = value;
    return a;
}

Access
wr(ProcId proc, int po, Addr addr, Word value)
{
    Access a;
    a.proc = proc;
    a.poIndex = po;
    a.kind = AccessKind::DataWrite;
    a.addr = addr;
    a.valueWritten = value;
    return a;
}

Access
rmw(ProcId proc, int po, Addr addr, Word seen, Word written)
{
    Access a;
    a.proc = proc;
    a.poIndex = po;
    a.kind = AccessKind::SyncRmw;
    a.addr = addr;
    a.valueRead = seen;
    a.valueWritten = written;
    return a;
}

TEST(ScVerifier, EmptyTraceIsSc)
{
    ExecutionTrace t;
    EXPECT_TRUE(verifySc(t).sc());
}

TEST(ScVerifier, SingleProcessorIsSc)
{
    ExecutionTrace t;
    t.add(wr(0, 0, 1, 5));
    t.add(rd(0, 1, 1, 5));
    ScReport r = verifySc(t);
    EXPECT_EQ(r.verdict, ScVerdict::Sc);
    EXPECT_EQ(r.witnessOrder.size(), 2u);
}

TEST(ScVerifier, ReadOfNeverWrittenValueIsNotSc)
{
    ExecutionTrace t;
    t.add(rd(0, 0, 1, 42)); // nothing ever wrote 42
    EXPECT_EQ(verifySc(t).verdict, ScVerdict::NotSc);
}

TEST(ScVerifier, ReadOfInitialValueIsSc)
{
    ExecutionTrace t;
    t.setInitial(1, 9);
    t.add(rd(0, 0, 1, 9));
    EXPECT_TRUE(verifySc(t).sc());
}

TEST(ScVerifier, DekkerBothZeroIsNotSc)
{
    // P0: W(x)=1, R(y)=0.  P1: W(y)=1, R(x)=0.  The classic violation.
    ExecutionTrace t;
    t.add(wr(0, 0, 0, 1));
    t.add(rd(0, 1, 1, 0));
    t.add(wr(1, 0, 1, 1));
    t.add(rd(1, 1, 0, 0));
    ScReport r = verifySc(t);
    EXPECT_EQ(r.verdict, ScVerdict::NotSc);
}

TEST(ScVerifier, DekkerOneZeroIsSc)
{
    ExecutionTrace t;
    t.add(wr(0, 0, 0, 1));
    t.add(rd(0, 1, 1, 0));
    t.add(wr(1, 0, 1, 1));
    t.add(rd(1, 1, 0, 1)); // P1 sees P0's write
    EXPECT_TRUE(verifySc(t).sc());
}

TEST(ScVerifier, WitnessOrderIsLegal)
{
    ExecutionTrace t;
    t.add(wr(0, 0, 0, 1));
    t.add(rd(0, 1, 1, 1));
    t.add(wr(1, 0, 1, 1));
    t.add(rd(1, 1, 0, 1));
    ScReport r = verifySc(t);
    ASSERT_TRUE(r.sc());
    // Replay the witness: every read must see the current value.
    std::map<Addr, Word> mem;
    std::map<ProcId, int> last_po;
    for (int id : r.witnessOrder) {
        const Access &a = t.at(id);
        // Program order respected.
        if (last_po.count(a.proc)) {
            EXPECT_GT(a.poIndex, last_po[a.proc]);
        }
        last_po[a.proc] = a.poIndex;
        if (a.reads()) {
            Word cur = mem.count(a.addr) ? mem[a.addr]
                                         : t.initialValue(a.addr);
            EXPECT_EQ(cur, a.valueRead);
        }
        if (a.writes())
            mem[a.addr] = a.valueWritten;
    }
}

TEST(ScVerifier, MessagePassingReorderedIsNotSc)
{
    // P0: W(data)=1, W(flag)=1.  P1: R(flag)=1, R(data)=0.
    ExecutionTrace t;
    t.add(wr(0, 0, 0, 1));
    t.add(wr(0, 1, 1, 1));
    t.add(rd(1, 0, 1, 1));
    t.add(rd(1, 1, 0, 0));
    EXPECT_EQ(verifySc(t).verdict, ScVerdict::NotSc);
}

TEST(ScVerifier, MessagePassingInOrderIsSc)
{
    ExecutionTrace t;
    t.add(wr(0, 0, 0, 1));
    t.add(wr(0, 1, 1, 1));
    t.add(rd(1, 0, 1, 1));
    t.add(rd(1, 1, 0, 1));
    EXPECT_TRUE(verifySc(t).sc());
}

TEST(ScVerifier, AtomicRmwPairMutualExclusion)
{
    // Two TAS on the same lock: both cannot see 0.
    ExecutionTrace t;
    t.add(rmw(0, 0, 5, 0, 1));
    t.add(rmw(1, 0, 5, 0, 1));
    EXPECT_EQ(verifySc(t).verdict, ScVerdict::NotSc);

    ExecutionTrace t2;
    t2.add(rmw(0, 0, 5, 0, 1));
    t2.add(rmw(1, 0, 5, 1, 1));
    EXPECT_TRUE(verifySc(t2).sc());
}

TEST(ScVerifier, CoherenceViolationIsNotSc)
{
    // Both processors observe two writes to x in opposite orders.
    ExecutionTrace t;
    t.add(wr(0, 0, 0, 1));
    t.add(wr(1, 0, 0, 2));
    t.add(rd(2, 0, 0, 1));
    t.add(rd(2, 1, 0, 2));
    t.add(rd(3, 0, 0, 2));
    t.add(rd(3, 1, 0, 1));
    // P2 sees 1 then 2; P3 sees 2 then 1. With only these two writes, no
    // total order explains both unless writes interleave between reads —
    // possible here? W1 W2 with P2: r1 before W2; P3: r2 after W2, then r1
    // would need value 1 after W2 wrote 2: impossible without rewriting.
    EXPECT_EQ(verifySc(t).verdict, ScVerdict::NotSc);
}

TEST(ScVerifier, IndependentLocationsAlwaysSc)
{
    ExecutionTrace t;
    for (int p = 0; p < 4; ++p) {
        t.add(wr(p, 0, static_cast<Addr>(p), 1));
        t.add(rd(p, 1, static_cast<Addr>(p), 1));
    }
    EXPECT_TRUE(verifySc(t).sc());
}

TEST(ScVerifier, StateCapYieldsUnknown)
{
    // Heavy branching on one shared location (every write changes the
    // value, so nothing is drained eagerly), made unsatisfiable by a
    // read of a value nobody writes; a tiny state cap must yield
    // Unknown instead of a (wrong) NotSc.
    ExecutionTrace t;
    for (int p = 0; p < 6; ++p) {
        for (int i = 0; i < 4; ++i) {
            t.add(wr(p, 2 * i, 0, static_cast<Word>(p * 10 + i)));
            t.add(rd(p, 2 * i + 1, 0, static_cast<Word>(p * 10 + i)));
        }
    }
    t.add(rd(0, 100, 0, 777)); // never written
    ScVerifierLimits lim;
    lim.maxStates = 10;
    EXPECT_EQ(verifySc(t, lim).verdict, ScVerdict::Unknown);
}

TEST(ScVerifier, ReductionHandlesPrivateMismatch)
{
    // A private-location read of an impossible value must be NotSc (the
    // eager drain proves it without search).
    ExecutionTrace t;
    t.add(wr(0, 0, 5, 1));
    t.add(rd(0, 1, 5, 999));
    ScReport r = verifySc(t);
    EXPECT_EQ(r.verdict, ScVerdict::NotSc);
}

TEST(ScVerifier, SilentSpinsAreCheap)
{
    // A long failed-TAS spin (reads 1, writes 1: memory unchanged) plus
    // the release it eventually observes: the partial-order reduction
    // must keep the search tiny.
    ExecutionTrace t;
    t.setInitial(9, 1);
    for (int i = 0; i < 200; ++i) {
        Access a;
        a.proc = 0;
        a.poIndex = i;
        a.kind = AccessKind::SyncRmw;
        a.addr = 9;
        a.valueRead = 1;
        a.valueWritten = 1;
        t.add(a);
    }
    // P1 releases; P0's final TAS wins.
    Access rel;
    rel.proc = 1;
    rel.poIndex = 0;
    rel.kind = AccessKind::SyncWrite;
    rel.addr = 9;
    rel.valueWritten = 0;
    t.add(rel);
    Access win;
    win.proc = 0;
    win.poIndex = 200;
    win.kind = AccessKind::SyncRmw;
    win.addr = 9;
    win.valueRead = 0;
    win.valueWritten = 1;
    t.add(win);
    ScReport r = verifySc(t);
    EXPECT_EQ(r.verdict, ScVerdict::Sc);
    EXPECT_LT(r.statesExplored, 500u);
}

TEST(ScVerifier, TinyCapOnBranchyTraceIsUnknown)
{
    // Two processors ping-ponging distinct values on one location: the
    // very first frontier state already branches, so maxStates=1 must
    // give up with Unknown — it cannot claim NotSc without exhausting.
    ExecutionTrace t;
    for (int p = 0; p < 2; ++p)
        for (int i = 0; i < 3; ++i)
            t.add(wr(p, i, 0, static_cast<Word>(100 * p + i)));
    t.add(rd(0, 10, 1, 555)); // unsatisfiable, but only after searching
    t.add(wr(1, 10, 1, 555)); // (a write of 555 exists, keeping the
                              // pending-write pruning out of the way)
    ScVerifierLimits lim;
    lim.maxStates = 1;
    ScReport r = verifySc(t, lim);
    EXPECT_EQ(r.verdict, ScVerdict::Unknown);
    EXPECT_TRUE(r.witnessOrder.empty());
}

TEST(ScVerifier, PendingWritePruningFailsFast)
{
    // P0's head read wants x=5, which no write anywhere produces, while
    // P1/P2 generate a combinatorial interleaving space on y. Without
    // the remaining-write-count pruning the search enumerates the y
    // interleavings before concluding; with it, the root state is
    // recognized as dead immediately.
    ExecutionTrace t;
    t.add(rd(0, 0, 0, 5));
    t.add(wr(1, 0, 0, 1)); // x is shared, so the private-address drain
                           // cannot shortcut the failure
    for (int i = 1; i <= 6; ++i) {
        t.add(wr(1, i, 1, static_cast<Word>(10 + i)));
        t.add(wr(2, i, 1, static_cast<Word>(20 + i)));
    }
    ScReport r = verifySc(t);
    EXPECT_EQ(r.verdict, ScVerdict::NotSc);
    EXPECT_LT(r.statesExplored, 5u);
}

TEST(ScVerifier, WriteValuesDifferingAbove32BitsStayDistinct)
{
    // P0's head read wants x == 5. The only write to x stores 5 + 2^32,
    // equal to 5 in its low 32 bits, and comes last in P1's program,
    // after P1 and P2 interleave six writes each to y. Keyed on the
    // full value, the pending-write pruning sees that no write produces
    // 5 and rejects the root state; a table that kept only the low 32
    // bits would count the 2^32 + 5 write as pending and search the y
    // interleavings until the state cap gives up with Unknown.
    const Word high = (Word{1} << 32) + 5;
    ExecutionTrace t;
    t.add(rd(0, 0, 0, 5));
    for (int i = 0; i < 6; ++i) {
        t.add(wr(1, i, 1, static_cast<Word>(10 + i)));
        t.add(wr(2, i, 1, static_cast<Word>(20 + i)));
    }
    t.add(wr(1, 6, 0, high));
    ScVerifierLimits lim;
    lim.maxStates = 50;
    ScReport r = ScVerifier().check(t, lim);
    EXPECT_EQ(r.verdict, ScVerdict::NotSc);
    EXPECT_LT(r.statesExplored, 5u);

    // Reading the high value back is satisfiable; reading 5 is not.
    ExecutionTrace readBack;
    readBack.add(wr(0, 0, 0, high));
    readBack.add(rd(1, 0, 0, high));
    EXPECT_TRUE(verifySc(readBack).sc());
    readBack.add(rd(1, 1, 0, 5));
    EXPECT_EQ(verifySc(readBack).verdict, ScVerdict::NotSc);
}

/** Distinct addresses in @p t. */
std::size_t
numAddrs(const ExecutionTrace &t)
{
    return t.addrs().size();
}

TEST(ScVerifier, ReusedVerifierMatchesFreshAcrossCorpusTraces)
{
    // Corpus traces from several machines and policies, including
    // Relaxed runs that are not SC, checked by one workspace in an order
    // where both the processor and the address count rise and fall.
    // Every third check runs under a one-state cap, so a capped search
    // is followed by a full one. Each report must equal a fresh
    // verifier's, witness included.
    std::vector<ExecutionTrace> traces;
    const char *files[] = {"sb", "iriw", "tas_counter", "mp_spin",
                           "peterson", "wrc", "barrier", "corr"};
    for (const char *f : files) {
        litmus_dsl::CompiledLitmus test = litmus_dsl::compileLitmusFile(
            std::string(WO_LITMUS_DIR) + "/" + f + ".litmus");
        for (const char *m : {"bus", "net", "net-u", "net-l2-moesi"}) {
            for (PolicyKind pk : {PolicyKind::Relaxed, PolicyKind::Def2Drf0}) {
                for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                    SystemConfig cfg = machineOrThrow(m).config(pk, seed);
                    try {
                        System::checkConfig(test.program, cfg);
                    } catch (const std::invalid_argument &) {
                        continue;
                    }
                    System sys(test.program, cfg);
                    if (sys.run())
                        traces.push_back(sys.trace());
                }
            }
        }
    }
    ASSERT_GE(traces.size(), 100u);

    // Zig-zag between the smallest and the largest remaining trace.
    std::sort(traces.begin(), traces.end(),
              [](const ExecutionTrace &a, const ExecutionTrace &b) {
                  if (a.numProcs() != b.numProcs())
                      return a.numProcs() < b.numProcs();
                  if (numAddrs(a) != numAddrs(b))
                      return numAddrs(a) < numAddrs(b);
                  return a.size() < b.size();
              });
    std::vector<const ExecutionTrace *> order;
    for (std::size_t lo = 0, hi = traces.size(); lo < hi;) {
        order.push_back(&traces[lo++]);
        if (lo < hi)
            order.push_back(&traces[--hi]);
    }

    ScVerifier reused;
    int procsUp = 0, procsDown = 0, addrsUp = 0, addrsDown = 0;
    std::set<ScVerdict> verdicts;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const ExecutionTrace &t = *order[i];
        if (i > 0) {
            const ExecutionTrace &prev = *order[i - 1];
            procsUp += t.numProcs() > prev.numProcs();
            procsDown += t.numProcs() < prev.numProcs();
            addrsUp += numAddrs(t) > numAddrs(prev);
            addrsDown += numAddrs(t) < numAddrs(prev);
        }
        ScVerifierLimits lim;
        if (i % 3 == 2)
            lim.maxStates = 1;
        ScReport got = reused.check(t, lim);
        ScReport want = ScVerifier().check(t, lim);
        verdicts.insert(got.verdict);
        EXPECT_EQ(got.verdict, want.verdict) << "trace " << i;
        EXPECT_EQ(got.statesExplored, want.statesExplored) << "trace " << i;
        EXPECT_EQ(got.witnessOrder, want.witnessOrder) << "trace " << i;
    }
    EXPECT_GT(procsUp, 0);
    EXPECT_GT(procsDown, 0);
    EXPECT_GT(addrsUp, 0);
    EXPECT_GT(addrsDown, 0);
    EXPECT_EQ(verdicts.size(), 3u); // Sc, NotSc and capped Unknown
}

} // namespace
} // namespace wo
