/**
 * @file
 * Integration tests: whole systems running whole programs, checked
 * against the formal core (SC verification, idealized outcome sets).
 */

#include <gtest/gtest.h>

#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "cpu/program_builder.hh"
#include "system/system.hh"

namespace wo {
namespace {

const Addr X = 0, Y = 1, S = 2;

MultiProgram
singleProc()
{
    MultiProgram mp("single");
    ProgramBuilder b;
    b.movi(1, 7)
        .storeReg(X, 1)
        .load(0, X)
        .store(Y, 3)
        .load(2, Y)
        .halt();
    mp.addProgram(b.build());
    return mp;
}

MultiProgram
dekker()
{
    MultiProgram mp("dekker");
    ProgramBuilder p0, p1;
    p0.store(X, 1).load(0, Y).halt();
    p1.store(Y, 1).load(0, X).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    return mp;
}

/** DRF0 message passing: producer writes data then Unsets a flag;
 * consumer spins with Test then reads data. */
MultiProgram
syncMessagePassing()
{
    MultiProgram mp("sync-mp");
    ProgramBuilder p0, p1;
    p0.store(X, 42).unset(S, 1).halt();
    p1.label("spin").test(0, S).beq(0, 0, "spin").load(1, X).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    return mp;
}

/** The Figure 3 scenario: P0: W(x), work, Unset(s); P1: TAS(s) until
 * acquired, work, R(x). */
MultiProgram
figure3()
{
    MultiProgram mp("fig3");
    ProgramBuilder p0, p1;
    p0.store(X, 1).nop(3).unset(S, 1).nop(3).halt();
    p1.label("spin").tas(0, S, 0).beq(0, 0, "spin").nop(3).load(1, X)
        .halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    // s==1 means "set" (released); TAS grabs it by writing 0.
    return mp;
}

SystemConfig
cfgFor(PolicyKind pk, InterconnectKind ic = InterconnectKind::Network,
       bool cached = true, std::uint64_t seed = 1)
{
    SystemConfig cfg;
    cfg.policy = pk;
    cfg.interconnect = ic;
    cfg.cached = cached;
    cfg.net.seed = seed;
    return cfg;
}

TEST(SystemSmoke, SingleProcessorAllPolicies)
{
    for (PolicyKind pk :
         {PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
          PolicyKind::Def2Drf1, PolicyKind::Relaxed}) {
        System sys(singleProc(), cfgFor(pk));
        ASSERT_TRUE(sys.run()) << toString(pk);
        RunResult r = sys.result();
        EXPECT_EQ(r.registers[0][0], 7u) << toString(pk);
        EXPECT_EQ(r.registers[0][2], 3u) << toString(pk);
        EXPECT_EQ(r.finalMemory[X], 7u) << toString(pk);
        EXPECT_EQ(r.finalMemory[Y], 3u) << toString(pk);
    }
}

TEST(SystemSmoke, SingleProcessorUncachedConfigs)
{
    for (InterconnectKind ic :
         {InterconnectKind::Bus, InterconnectKind::Network}) {
        System sys(singleProc(), cfgFor(PolicyKind::Sc, ic, false));
        ASSERT_TRUE(sys.run());
        RunResult r = sys.result();
        EXPECT_EQ(r.registers[0][0], 7u);
        EXPECT_EQ(r.finalMemory[Y], 3u);
    }
}

TEST(SystemSmoke, RelaxedWriteBufferSingleProcForwards)
{
    SystemConfig cfg = cfgFor(PolicyKind::Relaxed);
    cfg.writeBuffer = true;
    System sys(singleProc(), cfg);
    ASSERT_TRUE(sys.run());
    // The loads must see the buffered stores (intra-processor
    // dependencies are preserved even in the relaxed system).
    EXPECT_EQ(sys.result().registers[0][0], 7u);
    EXPECT_EQ(sys.result().registers[0][2], 3u);
}

TEST(SystemConfigValidation, RejectsIllegalCombos)
{
    SystemConfig uncached_def2 = cfgFor(PolicyKind::Def2Drf0);
    uncached_def2.cached = false;
    EXPECT_THROW(System(dekker(), uncached_def2), std::invalid_argument);

    SystemConfig sc_wb = cfgFor(PolicyKind::Sc);
    sc_wb.writeBuffer = true;
    EXPECT_THROW(System(dekker(), sc_wb), std::invalid_argument);
}

TEST(SystemSc, DekkerNeverBothZeroAcrossSeedsAndConfigs)
{
    struct Combo
    {
        InterconnectKind ic;
        bool cached;
    };
    for (Combo c : {Combo{InterconnectKind::Bus, false},
                    Combo{InterconnectKind::Network, false},
                    Combo{InterconnectKind::Bus, true},
                    Combo{InterconnectKind::Network, true}}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            System sys(dekker(), cfgFor(PolicyKind::Sc, c.ic, c.cached,
                                        seed));
            ASSERT_TRUE(sys.run());
            RunResult r = sys.result();
            bool both_zero =
                r.registers[0][0] == 0 && r.registers[1][0] == 0;
            EXPECT_FALSE(both_zero);
            EXPECT_TRUE(verifySc(sys.trace()).sc());
        }
    }
}

TEST(SystemRelaxed, WriteBufferBreaksDekkerOnBus)
{
    // Figure 1, case 1/3: reads passing buffered writes let both
    // processors read 0.
    int violations = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SystemConfig cfg =
            cfgFor(PolicyKind::Relaxed, InterconnectKind::Bus, false, seed);
        cfg.writeBuffer = true;
        System sys(dekker(), cfg);
        ASSERT_TRUE(sys.run());
        RunResult r = sys.result();
        if (r.registers[0][0] == 0 && r.registers[1][0] == 0) {
            ++violations;
            EXPECT_EQ(verifySc(sys.trace()).verdict, ScVerdict::NotSc);
        }
    }
    EXPECT_GT(violations, 0);
}

TEST(SystemDrf0, SyncMessagePassingDeliversData)
{
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            System sys(syncMessagePassing(),
                       cfgFor(pk, InterconnectKind::Network, true, seed));
            ASSERT_TRUE(sys.run()) << toString(pk) << " seed " << seed;
            RunResult r = sys.result();
            // The consumer must observe the datum (DRF0 contract).
            EXPECT_EQ(r.registers[1][1], 42u)
                << toString(pk) << " seed " << seed;
            ScReport sc = verifySc(sys.trace());
            EXPECT_TRUE(sc.sc())
                << toString(pk) << " seed " << seed << ": "
                << sc.toString() << "\n" << sys.trace().toString();
        }
    }
}

TEST(SystemDrf0, Figure3ScenarioAllWeakPolicies)
{
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            SystemConfig cfg =
                cfgFor(pk, InterconnectKind::Network, true, seed);
            cfg.warmCaches = true; // x shared in both caches: invalidations
            MultiProgram mp = figure3();
            System sys(mp, cfg);
            ASSERT_TRUE(sys.run()) << toString(pk) << " seed " << seed;
            RunResult r = sys.result();
            EXPECT_EQ(r.registers[1][1], 1u)
                << toString(pk) << " seed " << seed
                << "\n" << sys.trace().toString();
            EXPECT_TRUE(verifySc(sys.trace()).sc()) << toString(pk);
        }
    }
}

TEST(SystemDrf0, OutcomeWithinIdealizedSet)
{
    MultiProgram mp = syncMessagePassing();
    SystemConfig cfg = cfgFor(PolicyKind::Def2Drf0);
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    RunResult hw = sys.result();
    ScReport sc = verifySc(sys.trace());
    EXPECT_TRUE(sc.sc()) << sc.toString();
    OutcomeSet ideal = enumerateOutcomes(mp);
    EXPECT_FALSE(ideal.bounded);
    EXPECT_EQ(ideal.outcomes.count(hw), 1u) << hw.toString();
}

TEST(SystemEviction, SmallCacheStillCorrect)
{
    // A workload touching more lines than a tiny cache holds.
    MultiProgram mp("evict");
    ProgramBuilder b;
    for (Addr a = 0; a < 16; ++a)
        b.store(a, a + 100);
    for (Addr a = 0; a < 16; ++a)
        b.load(static_cast<int>(a % 4), a);
    b.halt();
    mp.addProgram(b.build());

    SystemConfig cfg = cfgFor(PolicyKind::Def2Drf0);
    cfg.cache.numSets = 2;
    cfg.cache.ways = 2;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    RunResult r = sys.result();
    for (Addr a = 0; a < 16; ++a)
        EXPECT_EQ(r.finalMemory[a], a + 100);
    // The last four loads land in registers 0..3 (addresses 12..15).
    EXPECT_EQ(r.registers[0][0], 112u);
    EXPECT_EQ(r.registers[0][3], 115u);
    EXPECT_GT(sys.stats().get("cache0.writebacks"), 0u);
}

TEST(SystemEviction, TwoProcsContendingWithTinyCaches)
{
    MultiProgram mp("evict2");
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        // Disjoint address ranges per processor (data-race-free), with a
        // shared sync handoff at the end.
        Addr base = p * 16;
        for (Addr a = 0; a < 12; ++a)
            b.store(base + a, p * 1000 + a);
        for (Addr a = 0; a < 12; ++a)
            b.load(0, base + a);
        b.halt();
        mp.addProgram(b.build());
    }
    SystemConfig cfg = cfgFor(PolicyKind::Def2Drf0);
    cfg.cache.numSets = 2;
    cfg.cache.ways = 2;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    RunResult r = sys.result();
    EXPECT_EQ(r.finalMemory[11], 11u);
    EXPECT_EQ(r.finalMemory[16 + 11], 1011u);
    EXPECT_TRUE(verifySc(sys.trace()).sc());
}

TEST(SystemStats, StallAccountingMovesWithPolicy)
{
    // Under Def1 the producer stalls at the Unset until its data write is
    // globally performed; under Def2 it does not (Figure 3's headline).
    MultiProgram mp = figure3();
    SystemConfig base = cfgFor(PolicyKind::Def1);
    base.warmCaches = true;
    base.cache.invApplyDelay = 200; // make the write slow to perform

    System def1(mp, base);
    ASSERT_TRUE(def1.run());
    Tick def1_p0_stall = def1.processor(0).stallCycles();

    SystemConfig cfg2 = base;
    cfg2.policy = PolicyKind::Def2Drf0;
    System def2(mp, cfg2);
    ASSERT_TRUE(def2.run());
    Tick def2_p0_stall = def2.processor(0).stallCycles();

    EXPECT_GT(def1_p0_stall, def2_p0_stall + 100)
        << "Def1 P0 stall " << def1_p0_stall << " vs Def2 "
        << def2_p0_stall;
}

} // namespace
} // namespace wo
