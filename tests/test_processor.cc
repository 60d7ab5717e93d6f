/**
 * @file
 * Unit tests for the Processor: dependency handling, policy gating,
 * write-buffer semantics, and trace recording — against a synchronous
 * mock memory port.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "cpu/processor.hh"
#include "cpu/program_builder.hh"

namespace wo {
namespace {

/** A scriptable memory port with controllable response latency. */
class MockPort : public MemPort
{
  public:
    explicit MockPort(EventQueue &eq, Tick commit_lat = 5,
                      Tick gp_extra = 0)
        : eq_(eq), commit_lat_(commit_lat), gp_extra_(gp_extra)
    {}

    void setPortClient(CacheClient *c) override { client_ = c; }

    void
    request(const CacheOp &op) override
    {
        requests.push_back(op);
        Word old = mem.count(op.addr) ? mem[op.addr] : 0;
        if (writesMemory(op.kind))
            mem[op.addr] = op.writeValue;
        Word read_val = old;
        std::uint64_t id = op.id;
        eq_.scheduleAfter(commit_lat_, [this, id, read_val] {
            if (gpFirst) {
                client_->opGloballyPerformed(id);
                client_->opCommitted(id, read_val);
                return;
            }
            client_->opCommitted(id, read_val);
            if (gp_extra_ == 0) {
                client_->opGloballyPerformed(id);
            } else {
                eq_.scheduleAfter(gp_extra_, [this, id] {
                    client_->opGloballyPerformed(id);
                });
            }
        });
    }

    std::vector<CacheOp> requests;
    std::map<Addr, Word> mem;
    /** Deliver each globally-performed notification just before its
     * commit notification, as a cache does when a write-ack overtakes
     * a delayed commit. */
    bool gpFirst = false;

  private:
    EventQueue &eq_;
    Tick commit_lat_;
    Tick gp_extra_;
    CacheClient *client_ = nullptr;
};

struct Harness
{
    Harness(Program prog, PolicyKind policy, bool write_buffer = false,
            ProcessorConfig pcfg = {}, Tick commit_lat = 5,
            Tick gp_extra = 0)
        : program(std::move(prog)), port(eq, commit_lat, gp_extra),
          proc(eq, stats, 0, program, port, policyOf(policy), &trace,
               write_buffer, pcfg)
    {}

    bool
    run(Tick max = 100000)
    {
        proc.start();
        eq.run(max);
        return proc.halted() && proc.quiescent();
    }

    EventQueue eq;
    StatSet stats;
    ExecutionTrace trace;
    Program program;
    MockPort port;
    Processor proc;
};

TEST(Processor, ExecutesArithmeticAndBranches)
{
    ProgramBuilder b;
    b.movi(0, 3)
        .label("loop")
        .addi(1, 1, 2)
        .addi(0, 0, static_cast<Word>(-1))
        .bne(0, 0, "loop")
        .halt();
    Harness h(b.build(), PolicyKind::Sc);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[1], 6u);
}

TEST(Processor, LoadValueReachesRegisterAndDependents)
{
    ProgramBuilder b;
    b.load(0, 7).addi(1, 0, 1).storeReg(8, 1).halt();
    Harness h(b.build(), PolicyKind::Sc);
    h.port.mem[7] = 41;
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 41u);
    EXPECT_EQ(h.proc.registers()[1], 42u);
    EXPECT_EQ(h.port.mem[8], 42u);
}

TEST(Processor, ScSerializesMemoryOps)
{
    ProgramBuilder b;
    b.store(1, 1).store(2, 2).store(3, 3).halt();
    // GP lags commit by 10.
    Harness h(b.build(), PolicyKind::Sc, false, {}, 5, 10);
    ASSERT_TRUE(h.run());
    // With SC, each store issues only after the previous is GP:
    // issue times must be >= 15 apart.
    ASSERT_EQ(h.port.requests.size(), 3u);
    // Trace commit ticks are the mock's commit times (issue + 5).
    Tick prev = 0;
    for (const auto &a : h.trace.accesses()) {
        if (prev != 0) {
            EXPECT_GE(a.commitTick, prev + 15);
        }
        prev = a.commitTick;
    }
}

TEST(Processor, RelaxedOverlapsMemoryOps)
{
    ProgramBuilder b;
    b.store(1, 1).store(2, 2).store(3, 3).halt();
    Harness h(b.build(), PolicyKind::Relaxed, false, {}, 5, 10);
    ASSERT_TRUE(h.run());
    // Back-to-back issue: commits land 1 cycle apart.
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    EXPECT_LE(acc[2].commitTick, acc[0].commitTick + 2);
}

TEST(Processor, SameAddressAccessesStayOrdered)
{
    // Even relaxed processors preserve same-address order (condition 1).
    ProgramBuilder b;
    b.store(5, 1).load(0, 5).store(5, 2).halt();
    Harness h(b.build(), PolicyKind::Relaxed, false, {}, 5, 10);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 1u);
    EXPECT_EQ(h.port.mem[5], 2u);
    ASSERT_EQ(h.port.requests.size(), 3u);
    EXPECT_EQ(h.port.requests[0].writeValue, 1u);
    EXPECT_EQ(h.port.requests[2].writeValue, 2u);
}

TEST(Processor, Def1StallsSyncUntilAllGp)
{
    ProgramBuilder b;
    b.store(1, 1).unset(9, 1).store(2, 2).halt();
    Harness h(b.build(), PolicyKind::Def1, false, {}, 5, 50);
    ASSERT_TRUE(h.run());
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    // Sync (index 1) commits after the first store's GP (commit+50).
    EXPECT_GE(acc[1].commitTick, acc[0].commitTick + 50);
    // And the store after the sync waits for the sync's GP.
    EXPECT_GE(acc[2].commitTick, acc[1].commitTick + 50);
}

TEST(Processor, Def2WaitsOnlyForSyncCommit)
{
    ProgramBuilder b;
    b.store(1, 1).unset(9, 1).store(2, 2).halt();
    Harness h(b.build(), PolicyKind::Def2Drf0, false, {}, 5, 50);
    ASSERT_TRUE(h.run());
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    // The sync issues immediately (condition 4 only gates on previous
    // syncs), and the store after it waits only for the sync COMMIT, not
    // its GP: everything commits well before the first store's GP+50.
    EXPECT_LE(acc[1].commitTick, acc[0].commitTick + 10);
    EXPECT_LE(acc[2].commitTick, acc[1].commitTick + 10);
}

TEST(Processor, WriteBufferForwardsToReads)
{
    ProgramBuilder b;
    b.store(5, 9).load(0, 5).halt();
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), PolicyKind::Relaxed, true, pcfg, 5, 0);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 9u);
    EXPECT_GT(h.stats.get("proc0.wb_forwards"), 0u);
}

TEST(Processor, WriteBufferLetsReadsPassWrites)
{
    ProgramBuilder b;
    b.store(5, 9).load(0, 6).halt();
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), PolicyKind::Relaxed, true, pcfg, 5, 0);
    ASSERT_TRUE(h.run());
    // The read reached the port before the buffered write drained.
    ASSERT_EQ(h.port.requests.size(), 2u);
    EXPECT_EQ(h.port.requests[0].kind, AccessKind::DataRead);
    EXPECT_EQ(h.port.requests[1].kind, AccessKind::DataWrite);
}

TEST(Processor, SyncDrainsWriteBuffer)
{
    ProgramBuilder b;
    b.store(5, 9).unset(9, 1).halt();
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), PolicyKind::Relaxed, true, pcfg, 5, 0);
    ASSERT_TRUE(h.run());
    ASSERT_EQ(h.port.requests.size(), 2u);
    // The sync reached the port only after the buffered write drained.
    EXPECT_EQ(h.port.requests[0].kind, AccessKind::DataWrite);
    EXPECT_EQ(h.port.requests[1].kind, AccessKind::SyncWrite);
}

TEST(Processor, TraceRecordsKindsAndValues)
{
    ProgramBuilder b;
    b.store(5, 9).load(0, 5).tas(1, 9).halt();
    Harness h(b.build(), PolicyKind::Sc);
    ASSERT_TRUE(h.run());
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    EXPECT_EQ(acc[0].kind, AccessKind::DataWrite);
    EXPECT_EQ(acc[0].valueWritten, 9u);
    EXPECT_EQ(acc[1].kind, AccessKind::DataRead);
    EXPECT_EQ(acc[1].valueRead, 9u);
    EXPECT_EQ(acc[2].kind, AccessKind::SyncRmw);
    EXPECT_EQ(acc[2].valueWritten, 1u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(acc[i].poIndex, i);
        EXPECT_NE(acc[i].commitTick, kNoTick);
        EXPECT_NE(acc[i].gpTick, kNoTick);
    }
}

TEST(Processor, StallCyclesAccumulateUnderSc)
{
    ProgramBuilder b;
    b.store(1, 1).store(2, 2).halt();
    Harness slow(b.build(), PolicyKind::Sc, false, {}, 5, 100);
    Harness fast(b.build(), PolicyKind::Relaxed, false, {}, 5, 100);
    ASSERT_TRUE(slow.run());
    ASSERT_TRUE(fast.run());
    EXPECT_GT(slow.proc.stallCycles(), fast.proc.stallCycles() + 50);
}

/** Run @p fn, expecting a std::logic_error whose message holds
 * @p needle. */
template <typename F>
void
expectLogicError(F &&fn, const std::string &needle)
{
    try {
        fn();
        ADD_FAILURE() << "no std::logic_error (wanted \"" << needle << "\")";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(Processor, NotificationForUnknownOpIdThrowsNamingIt)
{
    // Checked in every build type: op records sit in a window indexed
    // by id, so an unchecked lookup would read out of bounds.
    ProgramBuilder b;
    b.store(5, 9).halt();
    Harness h(b.build(), PolicyKind::Sc);
    expectLogicError([&] { h.proc.opCommitted(3, 0); },
                     "commit for unknown op id 3");
    expectLogicError([&] { h.proc.opGloballyPerformed(3); },
                     "gp for unknown op id 3");
    ASSERT_TRUE(h.run());
    // Op 1 retired: a repeated notification is as unknown as a forged
    // one.
    expectLogicError([&] { h.proc.opCommitted(1, 0); },
                     "proc0: commit for unknown op id 1");
    expectLogicError([&] { h.proc.opGloballyPerformed(1); },
                     "proc0: gp for unknown op id 1");
}

TEST(Processor, DuplicateCommitThrowsNamingIt)
{
    // Checked in every build type: a second commit of a live op would
    // decrement the outstanding count twice.
    ProgramBuilder b;
    b.store(5, 9).halt();
    Harness h(b.build(), PolicyKind::Sc);
    h.proc.start();
    h.eq.run(1); // op 1 issued; the port answers at tick 5
    h.proc.opCommitted(1, 0);
    expectLogicError([&] { h.proc.opCommitted(1, 0); },
                     "proc0: duplicate commit for op id 1");
}

TEST(Processor, DuplicateGpThrowsNamingIt)
{
    // A second globally-performed notice would decrement the not-yet-GP
    // count twice; the op stays live until its commit arrives.
    ProgramBuilder b;
    b.store(5, 9).halt();
    Harness h(b.build(), PolicyKind::Sc);
    h.proc.start();
    h.eq.run(1);
    h.proc.opGloballyPerformed(1);
    expectLogicError([&] { h.proc.opGloballyPerformed(1); },
                     "proc0: duplicate gp for op id 1");
}

TEST(Processor, BufferedWriteCommitForNonHeadThrows)
{
    // Buffered writes drain head first, one at a time: a commit for any
    // other buffered write is a protocol bug, not a reordering.
    ProgramBuilder b;
    b.store(5, 9).store(6, 8).halt();
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), PolicyKind::Relaxed, true, pcfg);
    h.proc.start();
    h.eq.run(10); // both stores buffered, neither drained
    expectLogicError([&] { h.proc.opCommitted(2, 0); },
                     "proc0: buffered-write commit for op id 2, which is "
                     "not the write-buffer head");
}

TEST(Processor, OpWindowGrowsBehindALongLivedOp)
{
    // Buffered writes hold their op ids until they drain, one at a
    // time, while the loads between them issue and retire: the window
    // from the oldest live op to the newest outgrows its first slots.
    ProgramBuilder b;
    for (int i = 0; i < 40; ++i)
        b.store(100 + i, static_cast<Word>(i + 1)).load(0, 200 + i);
    b.load(1, 139).halt();
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), PolicyKind::Relaxed, true, pcfg, 5, 0);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[1], 40u);
    EXPECT_EQ(h.trace.accesses().size(), 81u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(h.port.mem[100 + i], static_cast<Word>(i + 1));
}

TEST(Processor, BufferedWriteWhoseGpOvertakesItsDrainCommitRetires)
{
    // The drained write stays live until its commit notification
    // arrives too; retiring it at the GP made the commit an unknown id.
    ProgramBuilder b;
    b.store(5, 9).store(6, 8).load(0, 5).halt();
    Harness h(b.build(), PolicyKind::Relaxed, true);
    h.port.gpFirst = true;
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 9u);
    EXPECT_EQ(h.port.mem[5], 9u);
    EXPECT_EQ(h.port.mem[6], 8u);
}

TEST(Processor, WriteBufferUnderNonRelaxedPolicyThrows)
{
    // Checked in every build type: a store buffer lets reads pass
    // writes, which only the Relaxed policy allows.
    ProgramBuilder b;
    b.store(5, 9).halt();
    for (PolicyKind k : {PolicyKind::Sc, PolicyKind::Def1,
                         PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        EXPECT_THROW(Harness(b.build(), k, true), std::invalid_argument)
            << toString(k);
    }
    EXPECT_NO_THROW(Harness(b.build(), PolicyKind::Relaxed, true));
}

TEST(Processor, EmptyProgramHaltsImmediately)
{
    Program p;
    Harness h(p, PolicyKind::Sc);
    h.proc.start();
    EXPECT_TRUE(h.proc.halted());
}

} // namespace
} // namespace wo
