/**
 * @file
 * Unit tests for the idealized (atomic, program-order) architecture, its
 * outcome enumeration, and the test-only path enumeration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/idealized.hh"
#include "cpu/program_builder.hh"
#include "idealized_paths.hh"

namespace wo {
namespace {

MultiProgram
dekker()
{
    // Figure 1 of the paper: P1: X=1; r0=Y.  P2: Y=1; r0=X.
    MultiProgram mp("dekker");
    const Addr X = 0, Y = 1;
    ProgramBuilder p1, p2;
    p1.store(X, 1).load(0, Y).halt();
    p2.store(Y, 1).load(0, X).halt();
    mp.addProgram(p1.build());
    mp.addProgram(p2.build());
    return mp;
}

TEST(IdealizedMachine, SingleProcSequentialSemantics)
{
    MultiProgram mp("seq");
    ProgramBuilder b;
    b.movi(0, 5).addi(1, 0, 3).storeReg(10, 1).load(2, 10).halt();
    mp.addProgram(b.build());

    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 0), 5u);
    EXPECT_EQ(m.reg(0, 1), 8u);
    EXPECT_EQ(m.reg(0, 2), 8u);
    EXPECT_EQ(m.memory(10), 8u);
}

TEST(IdealizedMachine, BranchesFollowRegisters)
{
    MultiProgram mp("br");
    ProgramBuilder b;
    b.movi(0, 1)
        .beq(0, 1, "taken")
        .movi(1, 111) // skipped
        .label("taken")
        .movi(2, 222)
        .halt();
    mp.addProgram(b.build());
    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 1), 0u);
    EXPECT_EQ(m.reg(0, 2), 222u);
}

TEST(IdealizedMachine, TasIsAtomic)
{
    MultiProgram mp("tas");
    ProgramBuilder b;
    b.tas(0, 5).tas(1, 5).halt();
    mp.addProgram(b.build());
    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 0), 0u); // first TAS sees initial 0
    EXPECT_EQ(m.reg(0, 1), 1u); // second sees the 1 the first wrote
    EXPECT_EQ(m.memory(5), 1u);
}

TEST(IdealizedMachine, StepUnstepRoundTrips)
{
    MultiProgram mp = dekker();
    IdealizedMachine m(mp);
    auto key = [&m] {
        std::vector<std::uint64_t> k;
        m.appendStateKey(k);
        return k;
    };
    const std::vector<std::uint64_t> key0 = key();
    m.step(0);
    m.step(1);
    m.step(1);
    EXPECT_NE(key(), key0);
    m.unstep();
    m.unstep();
    m.unstep();
    EXPECT_EQ(key(), key0);
    EXPECT_EQ(m.trace().size(), 0);
}

TEST(IdealizedMachine, UnstepPastTheStartThrows)
{
    // The state searches pair every step with one unstep; an extra
    // unstep is a caller bug, reported in every build type.
    MultiProgram mp = dekker();
    IdealizedMachine m(mp);
    EXPECT_THROW(m.unstep(), std::logic_error);
    m.step(0);
    m.unstep();
    EXPECT_THROW(m.unstep(), std::logic_error);
    EXPECT_EQ(m.pc(0), 0);
    EXPECT_EQ(m.trace().size(), 0);
}

TEST(IdealizedMachine, RecordsTraceAccesses)
{
    MultiProgram mp = dekker();
    IdealizedMachine m(mp);
    while (!m.allHalted()) {
        for (ProcId p = 0; p < 2; ++p) {
            if (!m.halted(p))
                m.step(p);
        }
    }
    // 2 stores + 2 loads.
    EXPECT_EQ(m.trace().size(), 4);
}

TEST(IdealizedMachine, InitialValuesRespected)
{
    MultiProgram mp("init");
    ProgramBuilder b;
    b.load(0, 3).halt();
    mp.addProgram(b.build());
    mp.setInitial(3, 77);
    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 0), 77u);
}

TEST(EnumerateOutcomes, DekkerHasThreeScOutcomes)
{
    // Under SC the outcome r0==0 on both processors is impossible; the
    // other three combinations are reachable.
    OutcomeSet set = enumerateOutcomes(dekker());
    EXPECT_FALSE(set.bounded);
    EXPECT_EQ(set.outcomes.size(), 3u);
    for (const auto &r : set.outcomes) {
        bool both_zero =
            r.registers[0][0] == 0 && r.registers[1][0] == 0;
        EXPECT_FALSE(both_zero) << r.toString();
    }
}

TEST(EnumerateOutcomes, SingleProcHasOneOutcome)
{
    MultiProgram mp("one");
    ProgramBuilder b;
    b.store(0, 1).load(0, 0).halt();
    mp.addProgram(b.build());
    OutcomeSet set = enumerateOutcomes(mp);
    EXPECT_EQ(set.outcomes.size(), 1u);
}

TEST(EnumerateOutcomes, SpinLoopTerminatesViaMemoization)
{
    // P0 spins until P1 sets the flag: infinitely many interleavings, but
    // finitely many states.
    MultiProgram mp("spin");
    const Addr F = 0;
    ProgramBuilder p0, p1;
    p0.label("spin").load(0, F).beq(0, 0, "spin").halt();
    p1.store(F, 1).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    OutcomeSet set = enumerateOutcomes(mp);
    EXPECT_FALSE(set.bounded);
    // Exactly one halted outcome (P0 read 1, memory F==1); states where P0
    // spins forever are cycles, pruned by memoization.
    ASSERT_EQ(set.outcomes.size(), 1u);
    EXPECT_TRUE(set.outcomes.begin()->allHalted);
}

TEST(ForEachExecution, CountsDekkerInterleavings)
{
    // Two processors with 3 instructions each (store, load, halt):
    // C(6,3) = 20 interleavings.
    std::uint64_t n = 0;
    bool full = forEachExecution(
        dekker(), {},
        [&](const ExecutionTrace &, const RunResult &, bool complete) {
            EXPECT_TRUE(complete);
            ++n;
            return true;
        });
    EXPECT_TRUE(full);
    EXPECT_EQ(n, 20u);
}

TEST(ForEachExecution, EarlyStopWorks)
{
    std::uint64_t n = 0;
    bool full = forEachExecution(
        dekker(), {},
        [&](const ExecutionTrace &, const RunResult &, bool) {
            ++n;
            return n < 5;
        });
    EXPECT_FALSE(full);
    EXPECT_EQ(n, 5u);
}

TEST(RunWithSchedule, FollowsGivenOrder)
{
    MultiProgram mp = dekker();
    // All of P0 first, then P1: P0 reads Y==0, P1 reads X==1.
    ExecutionTrace t;
    RunResult r = runWithSchedule(mp, {0, 0, 0, 1, 1, 1}, &t);
    EXPECT_TRUE(r.allHalted);
    EXPECT_EQ(r.registers[0][0], 0u);
    EXPECT_EQ(r.registers[1][0], 1u);
    EXPECT_EQ(t.size(), 4);
}

TEST(RunWithSchedule, FinishesRoundRobinAfterSchedule)
{
    MultiProgram mp = dekker();
    RunResult r = runWithSchedule(mp, {0});
    EXPECT_TRUE(r.allHalted);
}

} // namespace
} // namespace wo
