/**
 * @file
 * Unit tests for the program generators: the seeded random workloads,
 * and the lock counter and barrier pinned to the corpus files they
 * generalize.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/drf0_checker.hh"
#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "system/system.hh"
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

/**
 * Structural equality modulo a bijective address renaming, which the
 * comparison discovers as it walks the instruction streams. Declared
 * initial values must agree through the same bijection.
 */
void
expectIsomorphic(const MultiProgram &dsl, const MultiProgram &gen)
{
    ASSERT_EQ(dsl.numProcs(), gen.numProcs());
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
        const Program &gp = gen.program(p);
        ASSERT_EQ(dp.size(), gp.size()) << "P" << p;
        for (int i = 0; i < dp.size(); ++i) {
            const Instruction &di = dp.at(i);
            const Instruction &gi = gp.at(i);
            EXPECT_EQ(di.op, gi.op) << "P" << p << " insn " << i;
            EXPECT_EQ(di.dst, gi.dst) << "P" << p << " insn " << i;
            EXPECT_EQ(di.src, gi.src) << "P" << p << " insn " << i;
            EXPECT_EQ(di.imm, gi.imm) << "P" << p << " insn " << i;
            EXPECT_EQ(di.target, gi.target) << "P" << p << " insn " << i;
            if (di.isMemOp()) {
                EXPECT_TRUE(mapAddr(di.addr, gi.addr))
                    << "P" << p << " insn " << i << ": address map "
                    << di.addr << " vs " << gi.addr
                    << " breaks the bijection";
            }
        }
    }
    for (const auto &[addr, value] : dsl.initials()) {
        auto it = fwd.find(addr);
        if (it != fwd.end()) {
            EXPECT_EQ(value, gen.initialValue(it->second)) << addr;
        }
    }
    for (const auto &[addr, value] : gen.initials()) {
        auto it = rev.find(addr);
        if (it != rev.end()) {
            EXPECT_EQ(value, dsl.initialValue(it->second)) << addr;
        }
    }
}

/** A generator call and the corpus file it equals at that size. */
struct CorpusTwin
{
    const char *file;
    MultiProgram gen;
    bool addrExact; ///< the DSL interns the generator's very addresses
};

std::vector<CorpusTwin>
corpusTwins()
{
    return {{WO_LITMUS_DIR "/tas_counter.litmus",
             lockCounter(LockKind::Tas, 2, 1), true},
            {WO_LITMUS_DIR "/tttas_counter.litmus",
             lockCounter(LockKind::Tttas, 2, 1), true},
            {WO_LITMUS_DIR "/barrier.litmus", barrier(2), false}};
}

TEST(RandomGen, GeneratorsAtCorpusSizeAreTheirFiles)
{
    for (const CorpusTwin &t : corpusTwins()) {
        SCOPED_TRACE(t.file);
        litmus_dsl::CompiledLitmus c = litmus_dsl::compileLitmusFile(t.file);
        EXPECT_EQ(c.program.name(), t.gen.name());
        expectIsomorphic(c.program, t.gen);
    }
}

TEST(RandomGen, GeneratorsShareTheirFilesDrf0Verdicts)
{
    for (const CorpusTwin &t : corpusTwins()) {
        SCOPED_TRACE(t.file);
        EXPECT_EQ(checkProgram(litmus_dsl::compileLitmusFile(t.file).program)
                      .obeysDrf0,
                  checkProgram(t.gen).obeysDrf0);
    }
}

TEST(RandomGen, AddressExactTwinsShareScVerdictsOnRealRuns)
{
    for (const CorpusTwin &t : corpusTwins()) {
        if (!t.addrExact)
            continue;
        SCOPED_TRACE(t.file);
        litmus_dsl::CompiledLitmus c = litmus_dsl::compileLitmusFile(t.file);
        for (PolicyKind policy : {PolicyKind::Sc, PolicyKind::Relaxed}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                SystemConfig cfg;
                cfg.policy = policy;
                cfg.cached = false;
                cfg.interconnect = InterconnectKind::Network;
                cfg.numMemModules = 2;
                cfg.net.seed = seed;
                cfg.net.jitter = 20;
                System sysDsl(c.program, cfg);
                System sysGen(t.gen, cfg);
                ASSERT_TRUE(sysDsl.run());
                ASSERT_TRUE(sysGen.run());
                EXPECT_EQ(sysDsl.result(), sysGen.result())
                    << toString(policy) << " seed " << seed;
                EXPECT_EQ(verifySc(sysDsl.trace()).verdict,
                          verifySc(sysGen.trace()).verdict)
                    << toString(policy) << " seed " << seed;
            }
        }
    }
}

} // namespace
} // namespace wo
