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
#include "litmus/compiler.hh"
#include "system/system.hh"

namespace wo {
namespace {

using litmus_dsl::CompiledLitmus;
using litmus_dsl::compileLitmusFile;

/** The classic algorithm: flags and turn are ordinary data accesses, so
 * the program races. Each processor enters the critical section once. */
CompiledLitmus
unlabeled()
{
    return compileLitmusFile(WO_LITMUS_DIR "/peterson.litmus");
}

/** Every flag and turn access is a sync (Test/Unset): DRF0. */
CompiledLitmus
labeled()
{
    return compileLitmusFile(WO_LITMUS_DIR "/peterson_sync.litmus");
}

/** The counter both versions end with when no increment is lost. */
constexpr Word kExpectedCount = 2;

Word
finalCount(const CompiledLitmus &c, const RunResult &r)
{
    return r.finalMemory.at(c.addrOf.at("counter"));
}

TEST(Peterson, UnlabeledVersionIsRacy)
{
    Drf0ProgramReport rep = checkProgram(unlabeled().program);
    EXPECT_FALSE(rep.obeysDrf0);
}

TEST(Peterson, LabeledVersionIsDrf0)
{
    Drf0ProgramReport rep = checkProgram(labeled().program);
    EXPECT_TRUE(rep.obeysDrf0)
        << rep.witnessReport.toString(rep.witness);
}

TEST(Peterson, IdealizedMachineNeverLosesIncrements)
{
    // On sequentially consistent memory even the unlabeled algorithm is
    // correct: enumerate all interleavings, every halted outcome shows
    // the exact count. (Bounded spin depth keeps this finite.)
    const CompiledLitmus c = unlabeled();
    OutcomeSet set = enumerateOutcomes(c.program);
    ASSERT_FALSE(set.outcomes.empty());
    for (const auto &r : set.outcomes) {
        if (r.allHalted) {
            EXPECT_EQ(finalCount(c, r), kExpectedCount) << r.toString();
        }
    }
}

TEST(Peterson, ScHardwareKeepsUnlabeledVersionExact)
{
    const CompiledLitmus c = unlabeled();
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Sc;
        cfg.net.seed = seed;
        System sys(c.program, cfg);
        ASSERT_TRUE(sys.run()) << "seed " << seed;
        EXPECT_EQ(finalCount(c, sys.result()), kExpectedCount)
            << "seed " << seed;
    }
}

TEST(Peterson, WriteBufferMachineLosesIncrements)
{
    // The paper's motivating failure: reads passing buffered writes let
    // both processors believe the other is outside, so both enter and
    // one increment is lost.
    const CompiledLitmus c = unlabeled();
    int losses = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Relaxed;
        cfg.writeBuffer = true;
        cfg.interconnect = InterconnectKind::Bus;
        cfg.cached = true;
        cfg.net.seed = seed;
        System sys(c.program, cfg);
        ASSERT_TRUE(sys.run());
        Word count = finalCount(c, sys.result());
        EXPECT_LE(count, kExpectedCount);
        if (count < kExpectedCount) {
            ++losses;
            // And the SC verifier agrees something non-SC happened.
            EXPECT_EQ(verifySc(sys.trace()).verdict, ScVerdict::NotSc);
        }
    }
    EXPECT_GT(losses, 0);
}

TEST(Peterson, LabeledVersionExactOnEveryConformingImplementation)
{
    const CompiledLitmus c = labeled();
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SystemConfig cfg;
            cfg.policy = pk;
            cfg.net.seed = seed;
            System sys(c.program, cfg);
            ASSERT_TRUE(sys.run())
                << toString(pk) << " seed " << seed;
            EXPECT_EQ(finalCount(c, sys.result()), kExpectedCount)
                << toString(pk) << " seed " << seed;
            EXPECT_TRUE(verifySc(sys.trace()).sc()) << toString(pk);
        }
    }
}

} // namespace
} // namespace wo
