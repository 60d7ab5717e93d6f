/**
 * @file
 * WRC (write-to-read causality): P0 writes x; P1 observes it and writes
 * y; P2 observes y and reads x. Under SC, P2 must see x == 1. The racy
 * version can fail on relaxed hardware; the sync-labeled version is
 * DRF0 and guaranteed everywhere.
 */

#include <gtest/gtest.h>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "cpu/program_builder.hh"
#include "system/system.hh"

namespace wo {
namespace {

const Addr X = 0, Y = 1;

MultiProgram
wrc(bool labeled)
{
    MultiProgram mp(labeled ? "wrc-sync" : "wrc-data");
    ProgramBuilder p0, p1, p2;
    if (labeled) {
        p0.unset(X, 1).halt();
        p1.label("s1").test(0, X).beq(0, 0, "s1").unset(Y, 1).halt();
        p2.label("s2").test(0, Y).beq(0, 0, "s2").test(1, X).halt();
    } else {
        p0.store(X, 1).halt();
        p1.label("s1").load(0, X).beq(0, 0, "s1").store(Y, 1).halt();
        p2.label("s2").load(0, Y).beq(0, 0, "s2").load(1, X).halt();
    }
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    mp.addProgram(p2.build());
    return mp;
}

TEST(Wrc, LabeledVersionIsDrf0)
{
    Drf0ProgramReport r = checkProgram(wrc(true));
    EXPECT_TRUE(r.obeysDrf0) << r.witnessReport.toString(r.witness);
}

TEST(Wrc, DataVersionIsRacy)
{
    Drf0ProgramReport r = checkProgram(wrc(false));
    EXPECT_FALSE(r.obeysDrf0);
}

TEST(Wrc, IdealizedAlwaysPropagatesCausality)
{
    OutcomeSet set = enumerateOutcomes(wrc(false));
    for (const auto &r : set.outcomes) {
        if (r.allHalted) {
            EXPECT_EQ(r.registers[2][1], 1u) << r.toString();
        }
    }
    EXPECT_FALSE(set.outcomes.empty());
}

TEST(Wrc, LabeledVersionCausalOnAllConformingImplementations)
{
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SystemConfig cfg;
            cfg.policy = pk;
            cfg.net.seed = seed;
            System sys(wrc(true), cfg);
            ASSERT_TRUE(sys.run()) << toString(pk) << " seed " << seed;
            EXPECT_EQ(sys.result().registers[2][1], 1u)
                << toString(pk) << " seed " << seed;
            EXPECT_TRUE(verifySc(sys.trace()).sc()) << toString(pk);
        }
    }
}

TEST(Wrc, ScHardwareKeepsEvenTheRacyVersionCausal)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Sc;
        cfg.net.seed = seed;
        System sys(wrc(false), cfg);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(sys.result().registers[2][1], 1u) << "seed " << seed;
    }
}

} // namespace
} // namespace wo
