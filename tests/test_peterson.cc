/**
 * @file
 * Peterson's algorithm as a test of the paper's thesis: software written
 * for sequentially consistent memory (the unlabeled algorithm) breaks on
 * weaker machines, while the same algorithm with hardware-recognizable
 * synchronization operations is DRF0 and works on every conforming
 * implementation.
 */

#include <gtest/gtest.h>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wo {
namespace {

TEST(Peterson, UnlabeledVersionIsRacy)
{
    Drf0ProgramReport rep = checkProgram(petersonCounter(false, 1));
    EXPECT_FALSE(rep.obeysDrf0);
}

TEST(Peterson, LabeledVersionIsDrf0)
{
    Drf0ProgramReport rep = checkProgram(petersonCounter(true, 1));
    EXPECT_TRUE(rep.obeysDrf0)
        << rep.witnessReport.toString(rep.witness);
}

TEST(Peterson, IdealizedMachineNeverLosesIncrements)
{
    // On sequentially consistent memory even the unlabeled algorithm is
    // correct: enumerate all interleavings, every halted outcome shows
    // the exact count. (Bounded spin depth keeps this finite.)
    OutcomeSet set = enumerateOutcomes(petersonCounter(false, 1));
    ASSERT_FALSE(set.outcomes.empty());
    for (const auto &r : set.outcomes) {
        if (r.allHalted) {
            EXPECT_EQ(r.finalMemory.at(litmus::kPetersonCounter),
                      petersonExpectedCount(1))
                << r.toString();
        }
    }
}

TEST(Peterson, ScHardwareKeepsUnlabeledVersionExact)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Sc;
        cfg.net.seed = seed;
        System sys(petersonCounter(false, 2), cfg);
        ASSERT_TRUE(sys.run()) << "seed " << seed;
        EXPECT_EQ(sys.result().finalMemory.at(litmus::kPetersonCounter),
                  petersonExpectedCount(2))
            << "seed " << seed;
    }
}

TEST(Peterson, WriteBufferMachineLosesIncrements)
{
    // The paper's motivating failure: reads passing buffered writes let
    // both processors believe the other is outside, so both enter and
    // one increment is lost.
    int losses = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Relaxed;
        cfg.writeBuffer = true;
        cfg.interconnect = InterconnectKind::Bus;
        cfg.cached = true;
        cfg.net.seed = seed;
        System sys(petersonCounter(false, 2), cfg);
        ASSERT_TRUE(sys.run());
        Word count =
            sys.result().finalMemory.at(litmus::kPetersonCounter);
        EXPECT_LE(count, petersonExpectedCount(2));
        if (count < petersonExpectedCount(2)) {
            ++losses;
            // And the SC verifier agrees something non-SC happened.
            EXPECT_EQ(verifySc(sys.trace()).verdict, ScVerdict::NotSc);
        }
    }
    EXPECT_GT(losses, 0);
}

TEST(Peterson, LabeledVersionExactOnEveryConformingImplementation)
{
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SystemConfig cfg;
            cfg.policy = pk;
            cfg.net.seed = seed;
            System sys(petersonCounter(true, 2), cfg);
            ASSERT_TRUE(sys.run())
                << toString(pk) << " seed " << seed;
            EXPECT_EQ(
                sys.result().finalMemory.at(litmus::kPetersonCounter),
                petersonExpectedCount(2))
                << toString(pk) << " seed " << seed;
            EXPECT_TRUE(verifySc(sys.trace()).sc()) << toString(pk);
        }
    }
}

} // namespace
} // namespace wo
