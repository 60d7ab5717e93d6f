/**
 * @file
 * Property tests of the weak-ordering contract (Definition 2): every
 * execution a conforming implementation produces for DRF0 software must
 * appear sequentially consistent.
 *
 * Parameterized sweeps run random lock-structured (DRF0-by-construction)
 * workloads on each implementation and feed every recorded execution to
 * the SC verifier. This is the executable counterpart of Appendix B's
 * proof, plus Section 6's claim that Definition 1 hardware also satisfies
 * Definition 2 with respect to DRF0.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

using litmus_dsl::compileLitmusFile;
using litmus_dsl::evalCond;

using Param = std::tuple<PolicyKind, InterconnectKind, std::uint64_t>;

class ContractSweep : public ::testing::TestWithParam<Param>
{
};

RandomWorkloadConfig
workloadCfg(std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.numLocks = 2;
    cfg.locsPerLock = 3;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 3;
    cfg.opsPerSection = 3;
    cfg.privateOpsBetween = 2;
    cfg.seed = seed;
    return cfg;
}

TEST_P(ContractSweep, Drf0WorkloadAppearsSequentiallyConsistent)
{
    auto [policy, ic, seed] = GetParam();
    MultiProgram mp = randomDrf0Program(workloadCfg(seed));

    SystemConfig cfg;
    cfg.policy = policy;
    cfg.interconnect = ic;
    cfg.cached = true;
    cfg.net.seed = seed * 7 + 1;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run()) << sys.description() << " seed " << seed;

    ScReport rep = verifySc(sys.trace());
    EXPECT_EQ(rep.verdict, ScVerdict::Sc)
        << sys.description() << " seed " << seed << ": " << rep.toString();
}

std::string
sweepName(const ::testing::TestParamInfo<Param> &info)
{
    PolicyKind policy = std::get<0>(info.param);
    InterconnectKind ic = std::get<1>(info.param);
    std::uint64_t seed = std::get<2>(info.param);
    std::string s = toString(policy) + "_" +
                    (ic == InterconnectKind::Bus ? "bus" : "net") + "_s" +
                    std::to_string(seed);
    for (auto &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ContractSweep,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1),
        ::testing::Values(InterconnectKind::Bus,
                          InterconnectKind::Network),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    sweepName);

class MutualExclusionSweep
    : public ::testing::TestWithParam<std::tuple<PolicyKind, std::uint64_t>>
{
};

TEST_P(MutualExclusionSweep, LockCounterIsExactOnWeakHardware)
{
    // End-to-end: mutual exclusion built from TAS/Unset works on every
    // conforming implementation — the counter never loses an increment.
    auto [policy, seed] = GetParam();
    const int procs = 4, rounds = 3;
    MultiProgram mp = lockCounter(LockKind::Tttas, procs, rounds);

    SystemConfig cfg;
    cfg.policy = policy;
    cfg.net.seed = seed;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run()) << toString(policy) << " seed " << seed;
    RunResult r = sys.result();
    EXPECT_EQ(r.finalMemory.at(kLockCounterAddr),
              static_cast<Word>(procs * rounds))
        << toString(policy) << " seed " << seed;
    EXPECT_TRUE(verifySc(sys.trace()).sc()) << toString(policy);
}

using MutexParam = std::tuple<PolicyKind, std::uint64_t>;

std::string
mutexName(const ::testing::TestParamInfo<MutexParam> &info)
{
    std::string s = toString(std::get<0>(info.param)) + "_s" +
                    std::to_string(std::get<1>(info.param));
    for (auto &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MutualExclusionSweep,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1),
        ::testing::Values(1u, 2u, 3u)),
    mutexName);

TEST(ContractBarrier, BarrierPublishesOnAllWeakImplementations)
{
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const int procs = 4;
            MultiProgram mp = barrier(procs);
            SystemConfig cfg;
            cfg.policy = pk;
            cfg.net.seed = seed;
            System sys(mp, cfg);
            ASSERT_TRUE(sys.run()) << toString(pk);
            RunResult r = sys.result();
            for (int p = 0; p < procs; ++p) {
                EXPECT_EQ(r.registers[p][3],
                          1000u + (p + 1) % procs)
                    << toString(pk) << " seed " << seed << " proc " << p;
            }
            EXPECT_TRUE(verifySc(sys.trace()).sc()) << toString(pk);
        }
    }
}

TEST(ContractViolation, RelaxedHardwareIsNotWeaklyOrderedForRacyCode)
{
    // The contract says nothing about non-DRF0 software: Dekker on the
    // relaxed machine (in-order issue, accesses overlapped across memory
    // modules — Figure 1 case 2) can and does produce non-SC results.
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    int non_sc = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Relaxed;
        cfg.cached = false;
        cfg.interconnect = InterconnectKind::Network;
        cfg.numMemModules = 2; // X and Y live in different modules
        cfg.net.seed = seed;
        System sys(sb.program, cfg);
        ASSERT_TRUE(sys.run());
        if (evalCond(sb.clause.cond, sys.result(), sb.addrOf)) {
            ++non_sc;
            EXPECT_EQ(verifySc(sys.trace()).verdict, ScVerdict::NotSc);
        }
    }
    EXPECT_GT(non_sc, 0);
}

TEST(ContractViolation, Def2HardwareMayBreakRacyCodeButKeepsDrf0Safe)
{
    // Under Def2/DRF0, Dekker (racy) may or may not violate SC — the
    // contract simply does not cover it. Sanity: no crash, run completes.
    const litmus_dsl::CompiledLitmus sb =
        compileLitmusFile(std::string(WO_LITMUS_DIR) + "/sb.litmus");
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Def2Drf0;
        cfg.net.seed = seed;
        cfg.warmCaches = true;
        System sys(sb.program, cfg);
        EXPECT_TRUE(sys.run());
    }
}

TEST(ContractOutcome, RandomDrf0OutcomeMatchesSomeScExplanation)
{
    // Full contract check, including the idealized-outcome membership on
    // a small bounded workload.
    RandomWorkloadConfig wcfg = workloadCfg(3);
    wcfg.numProcs = 2;
    wcfg.sectionsPerProc = 1;
    wcfg.opsPerSection = 2;
    wcfg.spinAcquire = false;
    MultiProgram mp = randomDrf0Program(wcfg);

    SystemConfig cfg;
    cfg.policy = PolicyKind::Def2Drf0;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    RunResult hw = sys.result();
    ScReport sc = verifySc(sys.trace());
    EXPECT_TRUE(sc.sc()) << sc.toString();
    OutcomeSet ideal = enumerateOutcomes(mp);
    EXPECT_FALSE(ideal.bounded);
    EXPECT_EQ(ideal.outcomes.count(hw), 1u) << hw.toString();
}

} // namespace
} // namespace wo
