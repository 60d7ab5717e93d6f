/**
 * @file
 * System-level behavior of the non-MSI protocols: the states only MESI /
 * MOESI / MESIF can reach, the directory actions that serve them, and
 * the stall-reason stat family invariant.
 *
 * Cross-processor ordering inside test programs is established with
 * DRF0 sync flags (Unset/Test) under SC, so every assertion about an
 * end-of-run cache state is deterministic — no seed sweeps needed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coherence/cache.hh"
#include "cpu/program_builder.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

constexpr Addr kData = 0;
constexpr Addr kFlagBase = 10;

/**
 * P0 stores kData=42 then releases flag 0; reader i spins on flag i,
 * loads kData, releases flag i+1. Under SC the loads are strictly
 * ordered after the store and after each other.
 */
MultiProgram
chainedReaders(int num_readers)
{
    MultiProgram mp("chained-readers");
    ProgramBuilder p0;
    p0.store(kData, 42).unset(kFlagBase, 1).halt();
    mp.addProgram(p0.build());
    for (int i = 0; i < num_readers; ++i) {
        ProgramBuilder b;
        b.label("spin")
            .test(0, kFlagBase + i)
            .beq(0, 0, "spin")
            .load(1, kData)
            .unset(kFlagBase + i + 1, 1)
            .halt();
        mp.addProgram(b.build());
    }
    return mp;
}

LineState
stateOf(System &sys, ProcId p, Addr addr)
{
    LineState st = LineState::Invalid;
    Word data = 0;
    if (!sys.cache(p) || !sys.cache(p)->peekLine(addr, &st, &data))
        return LineState::Invalid;
    return st;
}

TEST(Protocols, EveryProtocolMachineForbidsScViolationsAndAuditsClean)
{
    const litmus_dsl::CompiledLitmus sb = litmus_dsl::compileLitmusFile(
        std::string(WO_LITMUS_DIR) + "/sb.litmus");
    for (const char *m : {"bus-mesi", "bus-moesi", "bus-mesif",
                          "net-mesi", "net-moesi", "net-mesif"}) {
        SCOPED_TRACE(m);
        SystemConfig cfg =
            machineOrThrow(m).config(PolicyKind::Sc, 7);
        System sys(sb.program, cfg);
        EXPECT_TRUE(sys.run());
        EXPECT_FALSE(litmus_dsl::evalCond(sb.clause.cond, sys.result(),
                                          sb.addrOf));
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

TEST(Protocols, MesiFillsCleanExclusiveAndUpgradesSilently)
{
    // A single processor reads then writes a private location. MESI
    // must fill the cold read in E (one directory grant), then upgrade
    // E->M on the store without any directory traffic.
    MultiProgram mp("private-read-write");
    ProgramBuilder b;
    b.load(0, kData).store(kData, 7).halt();
    mp.addProgram(b.build());

    SystemConfig cfg = machineOrThrow("net-mesi").config(PolicyKind::Sc);
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.stats().get("cache0.misses"), 1u);
    EXPECT_EQ(sys.stats().get("cache0.hits"), 1u);
    EXPECT_EQ(sys.stats().get("cache0.silent_upgrades"), 1u);
    EXPECT_EQ(sys.stats().get("dir0.exclusive_grants"), 1u);
    EXPECT_EQ(stateOf(sys, 0, kData), LineState::Modified);
    EXPECT_TRUE(sys.auditCoherence().empty());

    // The same program under MSI pays a second directory round-trip for
    // the store and never touches the extension counters.
    SystemConfig msi = machineOrThrow("net-cold").config(PolicyKind::Sc);
    System ref(mp, msi);
    ASSERT_TRUE(ref.run());
    EXPECT_EQ(ref.stats().get("cache0.silent_upgrades"), 0u);
    EXPECT_EQ(ref.stats().get("dir0.exclusive_grants"), 0u);
    EXPECT_GT(ref.stats().get("dir0.requests"),
              sys.stats().get("dir0.requests"));
}

TEST(Protocols, MoesiOwnerKeepsDirtyLineAcrossReaders)
{
    SystemConfig cfg =
        machineOrThrow("net-moesi").config(PolicyKind::Sc);
    System sys(chainedReaders(2), cfg);
    ASSERT_TRUE(sys.run());
    RunResult r = sys.result();
    EXPECT_EQ(r.registers.at(1).at(1), 42u);
    EXPECT_EQ(r.registers.at(2).at(1), 42u);
    // The writer still owns the dirty line (M -> O on the first read
    // recall, O -> O on the second); nothing was written back.
    EXPECT_EQ(stateOf(sys, 0, kData), LineState::Owned);
    EXPECT_EQ(stateOf(sys, 1, kData), LineState::Shared);
    EXPECT_EQ(stateOf(sys, 2, kData), LineState::Shared);
    EXPECT_EQ(sys.stats().get("dir0.writebacks"), 0u);
    EXPECT_TRUE(sys.auditCoherence().empty());

    // MESI has no O: the same schedule demotes the writer to plain S
    // and the directory takes the data.
    SystemConfig mesi =
        machineOrThrow("net-mesi").config(PolicyKind::Sc);
    System ref(chainedReaders(2), mesi);
    ASSERT_TRUE(ref.run());
    EXPECT_EQ(stateOf(ref, 0, kData), LineState::Shared);
    EXPECT_TRUE(ref.auditCoherence().empty());
}

TEST(Protocols, MesifForwardStateFollowsTheMostRecentReader)
{
    SystemConfig cfg =
        machineOrThrow("net-mesif").config(PolicyKind::Sc);
    System sys(chainedReaders(2), cfg);
    ASSERT_TRUE(sys.run());
    RunResult r = sys.result();
    EXPECT_EQ(r.registers.at(1).at(1), 42u);
    EXPECT_EQ(r.registers.at(2).at(1), 42u);
    // Reader 1 filled in F, then was recalled to serve reader 2 and
    // demoted to S; reader 2 now holds F. The writer was demoted to S
    // by the first read recall (MESIF has no O to park dirty data in).
    EXPECT_EQ(stateOf(sys, 0, kData), LineState::Shared);
    EXPECT_EQ(stateOf(sys, 1, kData), LineState::Shared);
    EXPECT_EQ(stateOf(sys, 2, kData), LineState::Forward);
    EXPECT_GE(sys.stats().get("dir0.forward_recalls"), 1u);
    EXPECT_TRUE(sys.auditCoherence().empty());
}

TEST(Protocols, StallFamilyTotalSumsItsReasonsByConstruction)
{
    // Conflict-heavy program on a tiny (2-set, 1-way) L1: repeated
    // stores and loads over four lines that map to one set, so misses
    // queue behind MSHRs and evictions. Under Def2 the data accesses
    // overlap, which is what produces stalls.
    MultiProgram mp("set-thrash");
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        for (int round = 0; round < 3; ++round) {
            b.store(0, round + 1)
                .load(0, 0)
                .store(2, round + 2)
                .store(4, round + 3)
                .store(6, round + 4)
                .load(1, 2);
        }
        b.halt();
        mp.addProgram(b.build());
    }

    bool any_stall = false;
    for (ProtocolKind k :
         {ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Moesi,
          ProtocolKind::Mesif}) {
        SCOPED_TRACE(toString(k));
        SystemConfig cfg =
            machineOrThrow("net-cold").config(PolicyKind::Def2Drf0, 7);
        cfg.protocol = k;
        cfg.cache.numSets = 2;
        cfg.cache.ways = 1;
        System sys(mp, cfg);
        ASSERT_TRUE(sys.run());
        EXPECT_TRUE(sys.auditCoherence().empty());

        // For every component with a miss_stalls_total, the total must
        // equal the sum of that component's stalled_by_* counters —
        // Cache::missStalled bumps both at one site, so a mismatch
        // means a stall was counted outside it.
        const auto &all = sys.stats().all();
        std::string suffix = ".miss_stalls_total";
        for (const auto &[name, total] : all) {
            if (name.size() < suffix.size() ||
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) != 0)
                continue;
            std::string prefix =
                name.substr(0, name.size() - suffix.size()) +
                ".stalled_by_";
            std::uint64_t sum = 0;
            for (const auto &[rname, rval] : all) {
                if (rname.compare(0, prefix.size(), prefix) == 0)
                    sum += rval;
            }
            EXPECT_EQ(total, sum) << name;
            if (total > 0)
                any_stall = true;
        }
    }
    // The thrash program must actually exercise the family somewhere;
    // an all-zero pass would make the invariant check vacuous.
    EXPECT_TRUE(any_stall);
}

TEST(Protocols, AllProtocolsAgreeOnDrf0CriticalSectionOutcome)
{
    // The TAS lock counter is DRF0: whatever the interleaving, the lock must
    // serialize the increments, so every protocol must finish with the
    // counter at procs*rounds. (Register contents legitimately differ —
    // protocol timing changes who wins each acquisition.)
    MultiProgram prog = lockCounter(LockKind::Tas, 3, 2);
    for (const char *m :
         {"net-cold", "net-mesi", "net-moesi", "net-mesif"}) {
        SCOPED_TRACE(m);
        SystemConfig cfg =
            machineOrThrow(m).config(PolicyKind::Def2Drf0, 11);
        System sys(prog, cfg);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(sys.result().finalMemory.at(kData), 6u);
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

} // namespace
} // namespace wo
