/**
 * @file
 * Unit tests for the random workload generators.
 */

#include <gtest/gtest.h>

#include "core/drf0_checker.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

RandomWorkloadConfig
smallCfg(std::uint64_t seed, bool spin = true)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 3;
    cfg.numLocks = 2;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 2;
    cfg.opsPerSection = 2;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = spin;
    cfg.seed = seed;
    return cfg;
}

TEST(RandomGen, DeterministicForSeed)
{
    MultiProgram a = randomDrf0Program(smallCfg(42));
    MultiProgram b = randomDrf0Program(smallCfg(42));
    ASSERT_EQ(a.numProcs(), b.numProcs());
    for (int p = 0; p < a.numProcs(); ++p) {
        ASSERT_EQ(a.program(p).size(), b.program(p).size());
        for (int i = 0; i < a.program(p).size(); ++i) {
            EXPECT_EQ(a.program(p).at(i).toString(),
                      b.program(p).at(i).toString());
        }
    }
}

TEST(RandomGen, DifferentSeedsDiffer)
{
    MultiProgram a = randomDrf0Program(smallCfg(1));
    MultiProgram b = randomDrf0Program(smallCfg(2));
    bool differs = false;
    for (int p = 0; p < a.numProcs() && !differs; ++p) {
        if (a.program(p).size() != b.program(p).size()) {
            differs = true;
            break;
        }
        for (int i = 0; i < a.program(p).size(); ++i) {
            if (a.program(p).at(i).toString() !=
                b.program(p).at(i).toString()) {
                differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differs);
}

TEST(RandomGen, Drf0ProgramsAreRaceFreeSampled)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MultiProgram mp = randomDrf0Program(smallCfg(seed));
        Drf0ProgramReport rep = checkProgram(mp);
        EXPECT_FALSE(rep.bounded) << "seed " << seed;
        EXPECT_TRUE(rep.obeysDrf0)
            << "seed " << seed << "\n"
            << rep.witnessReport.toString(rep.witness);
    }
}

TEST(RandomGen, BoundedDrf0ProgramExhaustivelyRaceFree)
{
    RandomWorkloadConfig cfg = smallCfg(5, /*spin=*/false);
    cfg.numProcs = 2;
    cfg.sectionsPerProc = 1;
    MultiProgram mp = randomDrf0Program(cfg);
    Drf0ProgramReport rep = checkProgram(mp);
    EXPECT_TRUE(rep.obeysDrf0)
        << rep.witnessReport.toString(rep.witness);
    EXPECT_FALSE(rep.bounded);
}

TEST(RandomGen, RacyProgramsHaveRaces)
{
    int racy_found = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MultiProgram mp = randomRacyProgram(smallCfg(seed), 3);
        Drf0ProgramReport rep = checkProgram(mp);
        if (!rep.obeysDrf0)
            ++racy_found;
    }
    // Unguarded shared accesses race in (almost) every seed.
    EXPECT_GE(racy_found, 6);
}

TEST(RandomGen, LockAddressesDisjointFromData)
{
    RandomWorkloadConfig cfg = smallCfg(1);
    MultiProgram mp = randomDrf0Program(cfg);
    // Every sync access must target a lock address, every data access a
    // non-lock address.
    for (int p = 0; p < mp.numProcs(); ++p) {
        for (const auto &insn : mp.program(p).code()) {
            if (!insn.isMemOp())
                continue;
            bool is_lock = insn.addr < static_cast<Addr>(cfg.numLocks);
            if (isSync(insn.accessKind()))
                EXPECT_TRUE(is_lock) << insn.toString();
            else
                EXPECT_FALSE(is_lock) << insn.toString();
        }
    }
}

} // namespace
} // namespace wo
