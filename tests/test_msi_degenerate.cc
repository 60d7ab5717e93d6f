/**
 * @file
 * MSI-degenerate regression pin: the protocol-generic coherence layer,
 * configured as MSI, must reproduce the seed two-state implementation's
 * observable outcomes EXACTLY — not "still correct", identical.
 *
 * The golden rows below were captured from the seed implementation
 * (commit 7e20b00, before the protocol-table refactor) over four
 * workloads x three machines x {sc, def2} x two seeds: final registers,
 * finish tick, and the load-bearing cache / directory / interconnect
 * counters. Any diff here means the default protocol's timing or
 * decision paths moved, which would silently invalidate every
 * previously published number (litmus reports, campaign tables,
 * the paper-table goldens).
 *
 * If a change is INTENTIONALLY allowed to move these numbers, recapture
 * the goldens and say so loudly in the commit; never "fix" a row to
 * make the suite green.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "litmus/compiler.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

struct Golden
{
    const char *machine;
    const char *policy; ///< "sc" or "def2"
    const char *workload;
    std::uint64_t seed;
    int ok;
    Tick finishTick;
    std::uint64_t cacheHits;
    std::uint64_t cacheMisses;
    std::uint64_t dirRequests;
    std::uint64_t dirInvalidations;
    std::uint64_t dirRecalls;
    std::uint64_t dirWritebacks;
    std::uint64_t netMsgs;
    const char *regs; ///< "{r0,r1,},{...}," per processor
};

// Captured from the seed implementation; see file comment.
const Golden kGoldens[] = {
    {"bus", "sc", "dekker", 7, 1, 12, 0, 2, 4, 0, 2, 0, 12, "{1,},{1,},"},
    {"bus", "def2", "dekker", 7, 1, 2, 0, 2, 4, 0, 2, 0, 12, "{1,},{1,},"},
    {"bus", "def2", "dekker", 11, 1, 2, 0, 2, 4, 0, 2, 0, 12, "{1,},{1,},"},
    {"net", "sc", "dekker", 7, 1, 50, 0, 2, 4, 2, 2, 0, 18, "{1,},{1,},"},
    {"net", "def2", "dekker", 7, 1, 2, 1, 1, 2, 2, 0, 0, 10, "{0,},{0,},"},
    {"net", "def2", "dekker", 11, 1, 2, 1, 1, 2, 2, 0, 0, 10, "{0,},{0,},"},
    {"net-cold", "sc", "dekker", 7, 1, 27, 0, 2, 4, 0, 2, 0, 12,
     "{1,},{1,},"},
    {"net-cold", "def2", "dekker", 7, 1, 2, 0, 2, 4, 1, 1, 0, 13,
     "{0,},{1,},"},
    {"net-cold", "def2", "dekker", 11, 1, 2, 0, 2, 4, 0, 2, 0, 12,
     "{1,},{1,},"},
    {"bus", "sc", "mp_sync", 7, 1, 43, 0, 2, 5, 0, 3, 0, 16,
     "{0,0,},{1,42,},"},
    {"bus", "def2", "mp_sync", 7, 1, 35, 0, 2, 5, 0, 3, 0, 16,
     "{0,0,},{1,42,},"},
    {"bus", "def2", "mp_sync", 11, 1, 35, 0, 2, 5, 0, 3, 0, 16,
     "{0,0,},{1,42,},"},
    {"net", "sc", "mp_sync", 7, 1, 118, 0, 2, 5, 2, 3, 0, 22,
     "{0,0,},{1,42,},"},
    {"net", "def2", "mp_sync", 7, 1, 77, 0, 2, 4, 2, 2, 0, 18,
     "{0,0,},{1,42,},"},
    {"net", "def2", "mp_sync", 11, 1, 100, 0, 2, 5, 2, 3, 0, 22,
     "{0,0,},{1,42,},"},
    {"net-cold", "sc", "mp_sync", 7, 1, 95, 0, 2, 5, 0, 3, 0, 16,
     "{0,0,},{1,42,},"},
    {"net-cold", "def2", "mp_sync", 7, 1, 52, 0, 2, 4, 0, 2, 0, 12,
     "{0,0,},{1,42,},"},
    {"net-cold", "def2", "mp_sync", 11, 1, 71, 0, 2, 5, 0, 3, 0, 16,
     "{0,0,},{1,42,},"},
    {"bus", "sc", "tas2", 7, 1, 144, 3, 5, 10, 1, 6, 0, 35,
     "{0,2,2,},{0,4,2,},"},
    {"bus", "def2", "tas2", 7, 1, 119, 3, 5, 10, 1, 6, 0, 35,
     "{0,2,2,},{0,4,2,},"},
    {"bus", "def2", "tas2", 11, 1, 119, 3, 5, 10, 1, 6, 0, 35,
     "{0,2,2,},{0,4,2,},"},
    {"net", "sc", "tas2", 7, 1, 257, 5, 3, 7, 3, 4, 0, 31,
     "{0,2,2,},{0,4,2,},"},
    {"net", "def2", "tas2", 7, 1, 161, 6, 2, 5, 3, 2, 0, 23,
     "{0,2,2,},{0,4,2,},"},
    {"net", "def2", "tas2", 11, 1, 162, 6, 2, 5, 3, 2, 0, 23,
     "{0,2,2,},{0,4,2,},"},
    {"net-cold", "sc", "tas2", 7, 1, 287, 3, 5, 10, 1, 6, 0, 35,
     "{0,2,2,},{0,4,2,},"},
    {"net-cold", "def2", "tas2", 7, 1, 251, 3, 5, 10, 1, 6, 0, 35,
     "{0,2,2,},{0,4,2,},"},
    {"net-cold", "def2", "tas2", 11, 1, 183, 4, 4, 8, 1, 4, 0, 27,
     "{0,2,2,},{0,4,2,},"},
    {"bus", "sc", "peterson", 7, 1, 165, 0, 7, 15, 1, 9, 0, 51,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"bus", "def2", "peterson", 7, 1, 134, 0, 7, 15, 1, 9, 0, 51,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"bus", "def2", "peterson", 11, 1, 134, 0, 7, 15, 1, 9, 0, 51,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"net", "sc", "peterson", 7, 1, 368, 24, 8, 14, 5, 9, 0, 61,
     "{0,1,2,1,},{1,1,1,1,},"},
    {"net", "def2", "peterson", 7, 1, 263, 1, 6, 14, 5, 9, 0, 61,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"net", "def2", "peterson", 11, 1, 279, 1, 6, 14, 5, 9, 0, 61,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"net-cold", "sc", "peterson", 7, 1, 325, 0, 7, 15, 1, 9, 0, 51,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"net-cold", "def2", "peterson", 7, 1, 266, 0, 7, 15, 1, 9, 0, 51,
     "{1,0,1,1,},{0,0,2,1,},"},
    {"net-cold", "def2", "peterson", 11, 1, 277, 0, 7, 15, 1, 9, 0, 51,
     "{1,0,1,1,},{0,0,2,1,},"},
};

MultiProgram
workloadByName(const std::string &name)
{
    using litmus_dsl::compileLitmusFile;
    if (name == "dekker")
        return compileLitmusFile(WO_LITMUS_DIR "/sb.litmus").program;
    if (name == "mp_sync")
        return compileLitmusFile(WO_LITMUS_DIR "/mp_sync.litmus").program;
    if (name == "tas2")
        return lockCounter(LockKind::Tas, 2, 2);
    if (name == "peterson")
        return compileLitmusFile(WO_LITMUS_DIR "/peterson_sync.litmus")
            .program;
    throw std::runtime_error("unknown golden workload " + name);
}

std::string
formatRegisters(const RunResult &r)
{
    std::ostringstream oss;
    for (const auto &pr : r.registers) {
        oss << "{";
        for (Word w : pr)
            oss << w << ",";
        oss << "},";
    }
    return oss.str();
}

TEST(MsiDegenerate, DefaultProtocolReproducesSeedObservablesExactly)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.machine) + " " + g.policy + " " +
                     g.workload + " seed=" + std::to_string(g.seed));
        PolicyKind pk = std::string(g.policy) == "sc"
                            ? PolicyKind::Sc
                            : PolicyKind::Def2Drf0;
        SystemConfig cfg = machineOrThrow(g.machine).config(pk, g.seed);
        ASSERT_EQ(cfg.protocol, ProtocolKind::Msi) << g.machine;
        ASSERT_EQ(cfg.cacheLevels, 1) << g.machine;
        System sys(workloadByName(g.workload), cfg);
        bool ok = sys.run();
        EXPECT_EQ(ok ? 1 : 0, g.ok);
        EXPECT_EQ(sys.finishTick(), g.finishTick);
        EXPECT_EQ(formatRegisters(sys.result()), g.regs);
        const StatSet &st = sys.stats();
        EXPECT_EQ(st.get("cache0.hits"), g.cacheHits);
        EXPECT_EQ(st.get("cache0.misses"), g.cacheMisses);
        EXPECT_EQ(st.get("dir0.requests"), g.dirRequests);
        EXPECT_EQ(st.get("dir0.invalidations"), g.dirInvalidations);
        EXPECT_EQ(st.get("dir0.recalls"), g.dirRecalls);
        EXPECT_EQ(st.get("dir0.writebacks"), g.dirWritebacks);
        bool is_bus = cfg.interconnect == InterconnectKind::Bus;
        EXPECT_EQ(st.get(is_bus ? "bus.msgs" : "net.msgs"), g.netMsgs);
        // The MSI-degenerate runs must never touch protocol-extension
        // counters: those states are unreachable from the MSI table.
        EXPECT_EQ(st.get("dir0.exclusive_grants"), 0u);
        EXPECT_EQ(st.get("dir0.forward_recalls"), 0u);
        EXPECT_EQ(st.get("cache0.silent_upgrades"), 0u);
        EXPECT_EQ(st.get("cache0.clean_relinquishes"), 0u);
        EXPECT_TRUE(sys.auditCoherence().empty());
    }
}

} // namespace
} // namespace wo
