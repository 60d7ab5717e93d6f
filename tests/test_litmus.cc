/**
 * @file
 * Unit tests for the litmus programs, validated on the idealized
 * architecture and the DRF0 checker: the corpus files the paper's
 * arguments use and the parametric generators of workload/random_gen.hh.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

using litmus_dsl::CompiledLitmus;
using litmus_dsl::compileLitmusFile;
using litmus_dsl::evalCond;

CompiledLitmus
corpus(const std::string &file)
{
    return compileLitmusFile(std::string(WO_LITMUS_DIR) + "/" + file);
}

TEST(Litmus, DekkerShape)
{
    CompiledLitmus sb = corpus("sb.litmus");
    EXPECT_EQ(sb.program.numProcs(), 2);
    OutcomeSet set = enumerateOutcomes(sb.program);
    EXPECT_EQ(set.outcomes.size(), 3u);
    for (const auto &r : set.outcomes)
        EXPECT_FALSE(evalCond(sb.clause.cond, r, sb.addrOf));
}

TEST(Litmus, RacyMessagePassingViolatesDrf0)
{
    Drf0ProgramReport rep = checkProgram(corpus("mp_spin.litmus").program);
    EXPECT_FALSE(rep.obeysDrf0);
}

TEST(Litmus, SyncMessagePassingIsDrf0)
{
    Drf0ProgramReport rep = checkProgram(corpus("mp_sync.litmus").program);
    EXPECT_TRUE(rep.obeysDrf0)
        << rep.witnessReport.toString(rep.witness);
}

TEST(Litmus, SyncMessagePassingIdealizedDeliversDatum)
{
    OutcomeSet set = enumerateOutcomes(corpus("mp_sync.litmus").program);
    for (const auto &r : set.outcomes) {
        if (r.allHalted) {
            EXPECT_EQ(r.registers[1][1], 42u);
        }
    }
    EXPECT_FALSE(set.outcomes.empty());
}

TEST(Litmus, Figure3IsDrf0AndDeliversX)
{
    MultiProgram mp = corpus("figure3.litmus").program;
    Drf0ProgramReport rep = checkProgram(mp);
    EXPECT_TRUE(rep.obeysDrf0)
        << rep.witnessReport.toString(rep.witness);
    OutcomeSet set = enumerateOutcomes(mp);
    for (const auto &r : set.outcomes) {
        if (r.allHalted) {
            EXPECT_EQ(r.registers[1][1], 1u);
        }
    }
}

TEST(Litmus, LockCountersAreDrf0AndCountCorrectly)
{
    for (LockKind kind : {LockKind::Tas, LockKind::Tttas}) {
        MultiProgram mp = lockCounter(kind, 3, 2);
        Drf0ProgramReport rep = checkProgram(mp);
        EXPECT_TRUE(rep.obeysDrf0)
            << mp.name() << "\n"
            << rep.witnessReport.toString(rep.witness);
        // Round-robin idealized run: counter ends at procs * rounds.
        RunResult r = runWithSchedule(mp, {});
        ASSERT_TRUE(r.allHalted);
        EXPECT_EQ(r.finalMemory.at(kLockCounterAddr), 6u) << mp.name();
    }
}

TEST(Litmus, BarrierIsDrf0AndPublishes)
{
    MultiProgram mp = barrier(3);
    Drf0ProgramReport rep = checkProgram(mp);
    EXPECT_TRUE(rep.obeysDrf0)
        << rep.witnessReport.toString(rep.witness);
    RunResult r = runWithSchedule(mp, {});
    ASSERT_TRUE(r.allHalted);
    // Every processor read its neighbour's published datum.
    for (int p = 0; p < 3; ++p)
        EXPECT_EQ(r.registers[p][3], 1000u + (p + 1) % 3);
}

TEST(Litmus, IriwIdealizedNeverShowsOppositeOrders)
{
    CompiledLitmus iriw = corpus("iriw.litmus");
    OutcomeSet set = enumerateOutcomes(iriw.program);
    EXPECT_FALSE(set.bounded);
    for (const auto &r : set.outcomes)
        EXPECT_FALSE(evalCond(iriw.clause.cond, r, iriw.addrOf))
            << r.toString();
    // 2 writers x 2 readers with 2 reads each: plenty of outcomes.
    EXPECT_GT(set.outcomes.size(), 5u);
}

} // namespace
} // namespace wo
