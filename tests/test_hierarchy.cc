/**
 * @file
 * Two-level (private L1 + private L2) hierarchy tests: fills route
 * through the L2, inclusion holds under L2 pressure (back-probes), and
 * the registered two-level machines behave like their one-level
 * counterparts at the memory-model level.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/cache.hh"
#include "coherence/directory.hh"
#include "coherence/mid_cache.hh"
#include "consistency/policy.hh"
#include "cpu/program_builder.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

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
    const MultiProgram mp =
        compileLitmusFile(WO_LITMUS_DIR "/mp_sync.litmus").program;
    for (const char *m : {"bus-l2", "net-l2", "net-l2-moesi"}) {
        SCOPED_TRACE(m);
        SystemConfig cfg =
            machineOrThrow(m).config(PolicyKind::Def2Drf0, 11);
        System sys(mp, cfg);
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
        System sys(lockCounter(LockKind::Tas, 4, 2), cfg);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(sys.result().finalMemory.at(0), 8u);
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

/** Counts the L1's commit notifications. */
struct CommitCounter : CacheClient
{
    void opCommitted(std::uint64_t, Word) override { ++committed; }
    void opGloballyPerformed(std::uint64_t) override {}
    void counterReadsZero() override {}
    int committed = 0;
};

/** A processor-less MSI stack: L1 (node 0) -> private L2 of one set
 * and two ways (node 1) -> directory (node 2), on a jitter-free
 * network. */
struct L2Rig
{
    L2Rig()
    {
        GeneralNetwork::Config ncfg;
        ncfg.base = 3;
        ncfg.jitter = 0;
        net = std::make_unique<GeneralNetwork>(eq, stats, ncfg);
        dir = std::make_unique<Directory>(eq, *net, stats, 2,
                                          ProtocolKind::Msi, "dir0");
        MidCacheConfig l2cfg;
        l2cfg.numSets = 1;
        l2cfg.ways = 2;
        l2 = std::make_unique<MidCache>(eq, *net, stats, 1, 0, 2, 1,
                                        ProtocolKind::Msi, l2cfg,
                                        "l2cache0");
        l1 = std::make_unique<Cache>(
            eq, *net, stats, 0, 1, 1, ProtocolKind::Msi,
            policyOf(PolicyKind::Def2Drf0), CacheConfig{}, "cache0");
        l1->setPortClient(&client);
    }

    /** Install @p addr Shared in the L2 (and, if @p in_l1, in the L1
     * too), with the directory listing the L2 as its sharer. */
    void
    pokeShared(Addr addr, bool in_l1)
    {
        dir->pokeShared(addr, {1});
        l2->pokeLine(addr, LineState::Shared, 0, in_l1);
        if (in_l1)
            l1->pokeLine(addr, LineState::Shared, 0);
    }

    void
    read(std::uint64_t id, Addr addr)
    {
        CacheOp op;
        op.id = id;
        op.kind = AccessKind::DataRead;
        op.addr = addr;
        l1->access(op);
        while (!eq.empty())
            eq.step();
    }

    EventQueue eq;
    StatSet stats;
    std::unique_ptr<GeneralNetwork> net;
    std::unique_ptr<Directory> dir;
    std::unique_ptr<MidCache> l2;
    std::unique_ptr<Cache> l1;
    CommitCounter client;
};

template <class F>
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

/** Deliver @p type for line 8 to the rig's L2 from node @p src (0 = its
 * L1, 2 = the directory) and run until the L2 processes it. */
void
deliverToL2(L2Rig &rig, MsgType type, NodeId src)
{
    Msg m;
    m.type = type;
    m.src = src;
    m.dst = 1;
    m.addr = 8;
    rig.l2->handle(m);
    while (!rig.eq.empty())
        rig.eq.step();
}

TEST(HierarchyInvariant, SecondL1RequestInFlightThrowsNamingIt)
{
    // Checked in every build type: the L2's MSHRs live in dense
    // per-address slots, so a second request would overwrite the live
    // one unchecked.
    L2Rig rig;
    Msg get;
    get.type = MsgType::GetS;
    get.src = 0;
    get.dst = 1;
    get.addr = 8;
    rig.l2->handle(get);
    rig.l2->handle(get);
    expectLogicError(
        [&] {
            while (!rig.eq.empty())
                rig.eq.step();
        },
        "l2cache0 (node 1), line 8: second L1 request while one is in "
        "flight");
}

TEST(HierarchyInvariant, WritebackToLineTheL2LacksThrowsNamingIt)
{
    L2Rig rig;
    expectLogicError([&] { deliverToL2(rig, MsgType::PutX, 0); },
                     "l2cache0 (node 1), line 8: L1 writeback to a line "
                     "the L2 does not hold");
}

TEST(HierarchyInvariant, FillWithNoRequestOutstandingThrowsNamingIt)
{
    L2Rig rig;
    expectLogicError([&] { deliverToL2(rig, MsgType::Data, 2); },
                     "l2cache0 (node 1), line 8: fill with no request "
                     "outstanding");
}

TEST(HierarchyInvariant, WriteAckWithNoWritePendingThrowsNamingIt)
{
    L2Rig rig;
    expectLogicError([&] { deliverToL2(rig, MsgType::WriteAck, 2); },
                     "l2cache0 (node 1), line 8: write-ack with no write "
                     "pending");
    // Also for a line the L2 holds with nothing pending.
    rig.read(1, 8);
    ASSERT_TRUE(rig.l2->peekLine(8, nullptr, nullptr));
    expectLogicError([&] { deliverToL2(rig, MsgType::WriteAck, 2); },
                     "l2cache0 (node 1), line 8: write-ack with no write "
                     "pending");
}

TEST(HierarchyOrder, L2EvictionTieOnLastUseEvictsTheLowerAddress)
{
    // Two L2 lines of equal lastUse (poked lines were never used), both
    // gone from the L1 or both still in it: the next miss evicts, or
    // first back-probes, the lower address, whichever was installed
    // first.
    for (bool in_l1 : {false, true}) {
        for (bool lower_first : {true, false}) {
            SCOPED_TRACE(std::string(in_l1 ? "held by the L1" : "L2 only") +
                         (lower_first ? ", lower installed first"
                                      : ", higher installed first"));
            L2Rig rig;
            for (Addr a : lower_first ? std::vector<Addr>{4, 6}
                                      : std::vector<Addr>{6, 4})
                rig.pokeShared(a, in_l1);
            rig.read(1, 8);
            EXPECT_EQ(rig.client.committed, 1);
            EXPECT_FALSE(rig.l2->peekLine(4, nullptr, nullptr));
            EXPECT_TRUE(rig.l2->peekLine(6, nullptr, nullptr));
            EXPECT_TRUE(rig.l2->peekLine(8, nullptr, nullptr));
            EXPECT_FALSE(rig.l1->peekLine(4, nullptr, nullptr));
            EXPECT_EQ(rig.l1->peekLine(6, nullptr, nullptr), in_l1);
            EXPECT_EQ(rig.stats.get("l2cache0.inner_invs"), in_l1 ? 1u : 0u);
            EXPECT_TRUE(rig.l2->idle());
        }
    }
}

} // namespace
} // namespace wo
