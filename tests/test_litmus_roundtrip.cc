/**
 * @file
 * Round-trip coverage: every C++ litmus builder's program is
 * reproducible from its .litmus source. The DSL interns addresses
 * itself (data first, then sync), so equivalence is structural —
 * instruction-for-instruction equality modulo a consistent address
 * bijection — plus identical checker verdicts (sampled DRF0 on the
 * same schedules; SC verification of real machine runs for the pairs
 * whose address maps coincide exactly).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/drf0_checker.hh"
#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wo {
namespace {

using litmus_dsl::CompiledLitmus;
using litmus_dsl::compileLitmusFile;

std::string
corpusFile(const std::string &name)
{
    return std::string(WO_LITMUS_DIR) + "/" + name;
}

/**
 * Structural equality modulo a bijective address renaming, which the
 * comparison discovers as it walks the instruction streams.
 */
void
expectIsomorphic(const MultiProgram &dsl, const MultiProgram &ref)
{
    ASSERT_EQ(dsl.numProcs(), ref.numProcs());
    std::map<Addr, Addr> fwd, rev;
    auto mapAddr = [&](Addr a, Addr b) {
        auto f = fwd.find(a);
        auto r = rev.find(b);
        if (f == fwd.end() && r == rev.end()) {
            fwd[a] = b;
            rev[b] = a;
            return true;
        }
        return f != fwd.end() && f->second == b && r != rev.end() &&
               r->second == a;
    };
    for (int p = 0; p < dsl.numProcs(); ++p) {
        const Program &dp = dsl.program(p);
        const Program &rp = ref.program(p);
        ASSERT_EQ(dp.size(), rp.size()) << "P" << p;
        for (std::size_t i = 0; i < dp.size(); ++i) {
            const Instruction &di = dp.at(i);
            const Instruction &ri = rp.at(i);
            EXPECT_EQ(di.op, ri.op) << "P" << p << " insn " << i;
            EXPECT_EQ(di.dst, ri.dst) << "P" << p << " insn " << i;
            EXPECT_EQ(di.src, ri.src) << "P" << p << " insn " << i;
            EXPECT_EQ(di.imm, ri.imm) << "P" << p << " insn " << i;
            EXPECT_EQ(di.target, ri.target) << "P" << p << " insn " << i;
            if (di.isMemOp()) {
                EXPECT_TRUE(mapAddr(di.addr, ri.addr))
                    << "P" << p << " insn " << i << ": address map "
                    << di.addr << " vs " << ri.addr
                    << " breaks the bijection";
            }
        }
    }
    // Declared initial values must agree through the same bijection.
    for (const auto &[addr, value] : dsl.initials()) {
        auto it = fwd.find(addr);
        if (it != fwd.end())
            EXPECT_EQ(value, ref.initialValue(it->second)) << addr;
    }
    for (const auto &[addr, value] : ref.initials()) {
        auto it = rev.find(addr);
        if (it != rev.end())
            EXPECT_EQ(value, dsl.initialValue(it->second)) << addr;
    }
}

/** DSL-vs-builder sampled DRF0 verdicts on the same schedule stream. */
void
expectSameDrf0Verdict(const MultiProgram &dsl, const MultiProgram &ref,
                      int schedules = 120)
{
    Drf0ProgramReport a = checkProgramSampled(dsl, schedules, 5);
    Drf0ProgramReport b = checkProgramSampled(ref, schedules, 5);
    EXPECT_EQ(a.obeysDrf0, b.obeysDrf0);
}

struct Pair
{
    const char *file;
    MultiProgram ref;
    bool addrExact; ///< DSL interning matches the builder's addresses
};

std::vector<Pair>
allPairs()
{
    std::vector<Pair> pairs;
    pairs.push_back({"mp_sync.litmus", syncMessagePassing(), false});
    pairs.push_back({"figure3.litmus", figure3Scenario(3), false});
    pairs.push_back({"tttas_counter.litmus", tttasLockCounter(2, 1),
                     true});
    pairs.push_back({"tas_counter.litmus", tasLockCounter(2, 1), true});
    pairs.push_back({"barrier.litmus", syncBarrier(2), false});
    pairs.push_back({"peterson.litmus", petersonCounter(false, 1),
                     false});
    pairs.push_back({"peterson_sync.litmus", petersonCounter(true, 1),
                     false});
    return pairs;
}

TEST(LitmusRoundTrip, EveryBuilderIsReproducibleFromItsFile)
{
    for (Pair &p : allPairs()) {
        SCOPED_TRACE(p.file);
        CompiledLitmus c = compileLitmusFile(corpusFile(p.file));
        expectIsomorphic(c.program, p.ref);
    }
}

TEST(LitmusRoundTrip, CheckerVerdictsMatchTheBuilders)
{
    for (Pair &p : allPairs()) {
        SCOPED_TRACE(p.file);
        CompiledLitmus c = compileLitmusFile(corpusFile(p.file));
        expectSameDrf0Verdict(c.program, p.ref);
    }
}

TEST(LitmusRoundTrip, AddressExactPairsShareScVerdictsOnRealRuns)
{
    for (Pair &p : allPairs()) {
        if (!p.addrExact)
            continue;
        SCOPED_TRACE(p.file);
        CompiledLitmus c = compileLitmusFile(corpusFile(p.file));
        for (PolicyKind policy :
             {PolicyKind::Sc, PolicyKind::Relaxed}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                SystemConfig cfg;
                cfg.policy = policy;
                cfg.cached = false;
                cfg.interconnect = InterconnectKind::Network;
                cfg.numMemModules = 2;
                cfg.net.seed = seed;
                cfg.net.jitter = 20;
                System sysDsl(c.program, cfg);
                System sysRef(p.ref, cfg);
                ASSERT_TRUE(sysDsl.run());
                ASSERT_TRUE(sysRef.run());
                EXPECT_EQ(sysDsl.result(), sysRef.result())
                    << toString(policy) << " seed " << seed;
                ScReport va = verifySc(sysDsl.trace());
                ScReport vb = verifySc(sysRef.trace());
                EXPECT_EQ(va.verdict, vb.verdict)
                    << toString(policy) << " seed " << seed;
            }
        }
    }
}

} // namespace
} // namespace wo
