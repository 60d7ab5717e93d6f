/**
 * @file
 * Multi-bank configurations: several directory banks (cache-coherent)
 * and several memory modules (cache-less) must preserve all guarantees —
 * lines map to banks by address, each bank serializes independently.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

using litmus_dsl::compileLitmusFile;
using litmus_dsl::evalCond;

TEST(Banks, MultiDirectoryDrf0WorkloadsStaySc)
{
    for (int dirs : {1, 2, 4}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            RandomWorkloadConfig w;
            w.numProcs = 4;
            w.seed = seed;
            SystemConfig cfg;
            cfg.policy = PolicyKind::Def2Drf0;
            cfg.numDirs = dirs;
            cfg.net.seed = seed * 7;
            System sys(randomDrf0Program(w), cfg);
            ASSERT_TRUE(sys.run()) << dirs << " dirs, seed " << seed;
            EXPECT_TRUE(verifySc(sys.trace()).sc())
                << dirs << " dirs, seed " << seed;
        }
    }
}

TEST(Banks, MultiDirectoryMutualExclusionExact)
{
    const int procs = 4, rounds = 2;
    SystemConfig cfg;
    cfg.policy = PolicyKind::Def2Drf1;
    cfg.numDirs = 3;
    System sys(lockCounter(LockKind::Tttas, procs, rounds), cfg);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.result().finalMemory.at(kLockCounterAddr),
              static_cast<Word>(procs * rounds));
}

TEST(Banks, ManyMemoryModulesUncachedScStillSc)
{
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    for (int mods : {1, 2, 4, 8}) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Sc;
        cfg.cached = false;
        cfg.numMemModules = mods;
        System sys(sb.program, cfg);
        ASSERT_TRUE(sys.run()) << mods << " modules";
        EXPECT_FALSE(evalCond(sb.clause.cond, sys.result(), sb.addrOf))
            << mods;
        EXPECT_TRUE(verifySc(sys.trace()).sc()) << mods;
    }
}

TEST(Banks, SingleModuleSerializationPreventsCase2Violation)
{
    // Figure 1 case 2 needs x and y in DIFFERENT modules; with one
    // module the module's own serialization restores order even for the
    // relaxed machine (writes and reads of one processor stay ordered
    // through the single service queue and the p2p-FIFO network).
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    int violations_one = 0, violations_two = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (int mods : {1, 2}) {
            SystemConfig cfg;
            cfg.policy = PolicyKind::Relaxed;
            cfg.cached = false;
            cfg.numMemModules = mods;
            cfg.net.seed = seed;
            System sys(sb.program, cfg);
            ASSERT_TRUE(sys.run());
            if (evalCond(sb.clause.cond, sys.result(), sb.addrOf)) {
                if (mods == 1)
                    ++violations_one;
                else
                    ++violations_two;
            }
        }
    }
    EXPECT_EQ(violations_one, 0);
    EXPECT_GT(violations_two, 0);
}

TEST(Banks, RejectsZeroBanks)
{
    SystemConfig cfg;
    cfg.numDirs = 0;
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    EXPECT_THROW(System(sb.program, cfg), std::invalid_argument);
}

} // namespace
} // namespace wo
