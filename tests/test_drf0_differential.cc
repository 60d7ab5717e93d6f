/**
 * @file
 * Differential tests pinning the streaming vector-clock DRF0 checker to
 * the historical bitset happens-before implementation:
 *
 *  - checkTrace() and checkTraceBitset() must agree on the verdict AND
 *    on the exact normalized race set, across the shipped litmus corpus
 *    and hundreds of random (program, schedule) combinations;
 *  - the online early-exit inside checkProgramSampled() must never
 *    change a verdict, execution count, or witness relative to an
 *    offline reference that race-checks every full trace;
 *  - the campaign Drf0Memo must return reports identical to the direct
 *    sampled check.
 */

#include <gtest/gtest.h>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "sim/rng.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

/** Both checkers on one trace: same verdict, same normalized races. */
void
expectEquivalent(const ExecutionTrace &trace, const std::string &what)
{
    Drf0TraceReport vc = checkTrace(trace);
    Drf0TraceReport bitset = checkTraceBitset(trace);
    EXPECT_EQ(vc.raceFree, bitset.raceFree) << what;
    EXPECT_EQ(vc.races, bitset.races) << what;
}

/** One random-schedule trace of @p mp. */
ExecutionTrace
randomTrace(const MultiProgram &mp, std::uint64_t seed, int prefix = 200)
{
    Rng rng(seed);
    std::vector<ProcId> sched;
    sched.reserve(static_cast<std::size_t>(prefix));
    for (int i = 0; i < prefix; ++i)
        sched.push_back(static_cast<ProcId>(rng.below(mp.numProcs())));
    ExecutionTrace trace;
    runWithSchedule(mp, sched, &trace);
    return trace;
}

/**
 * The pre-vector-clock sampled check: identical schedule stream to
 * checkProgramSampled() (one shared Rng, same processor draws), but
 * every execution runs to completion and is race-checked offline with
 * the bitset oracle. The online early-exit must be invisible next to
 * this.
 */
Drf0ProgramReport
offlineSampled(const MultiProgram &program, int num_schedules,
               std::uint64_t seed, int max_steps = 10000)
{
    Drf0ProgramReport report;
    report.bounded = true;
    Rng rng(seed);
    int nprocs = program.numProcs();
    for (int s = 0; s < num_schedules && report.obeysDrf0; ++s) {
        IdealizedMachine m(program);
        int steps = 0;
        while (!m.allHalted() && steps < max_steps) {
            ProcId p = static_cast<ProcId>(rng.below(nprocs));
            while (m.halted(p))
                p = (p + 1) % nprocs;
            m.step(p);
            ++steps;
        }
        ++report.executions;
        Drf0TraceReport tr = checkTraceBitset(m.trace());
        if (!tr.raceFree) {
            report.obeysDrf0 = false;
            report.witness = m.trace();
            report.witnessReport = tr;
        }
    }
    return report;
}

RandomWorkloadConfig
smallCfg(std::uint64_t seed, int procs)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = procs;
    cfg.numLocks = 2;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 2;
    cfg.opsPerSection = 3;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = false;
    cfg.seed = seed;
    return cfg;
}

TEST(Drf0Differential, LitmusCorpusTracesAgree)
{
    std::vector<std::string> files =
        litmus_dsl::findLitmusFiles({WO_LITMUS_DIR});
    ASSERT_FALSE(files.empty());
    for (const std::string &f : files) {
        litmus_dsl::CompiledLitmus test = litmus_dsl::compileLitmusFile(f);
        for (std::uint64_t s = 1; s <= 6; ++s) {
            ExecutionTrace trace = randomTrace(test.program, s);
            expectEquivalent(trace,
                             f + " seed " + std::to_string(s));
        }
    }
}

TEST(Drf0Differential, RandomDrf0ProgramsAgreeAndAreRaceFree)
{
    // 125 generated lock-disciplined programs x 2 schedules each.
    for (std::uint64_t seed = 1; seed <= 125; ++seed) {
        MultiProgram mp =
            randomDrf0Program(smallCfg(seed, 2 + seed % 3));
        for (std::uint64_t s = 1; s <= 2; ++s) {
            ExecutionTrace trace = randomTrace(mp, seed * 1000 + s);
            Drf0TraceReport vc = checkTrace(trace);
            EXPECT_TRUE(vc.raceFree)
                << "DRF0-by-construction program raced, seed " << seed
                << "\n" << vc.toString(trace);
            expectEquivalent(trace, "drf0 seed " + std::to_string(seed));
        }
    }
}

TEST(Drf0Differential, RandomRacyProgramsAgree)
{
    // 125 programs with deliberate unguarded accesses x 2 schedules.
    for (std::uint64_t seed = 1; seed <= 125; ++seed) {
        MultiProgram mp =
            randomRacyProgram(smallCfg(seed, 2 + seed % 3), 2);
        for (std::uint64_t s = 1; s <= 2; ++s) {
            ExecutionTrace trace = randomTrace(mp, seed * 1000 + s);
            expectEquivalent(trace, "racy seed " + std::to_string(seed));
        }
    }
}

TEST(Drf0Differential, OnlineEarlyExitNeverChangesSampledVerdict)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        MultiProgram racy = randomRacyProgram(smallCfg(seed, 2), 2);
        MultiProgram clean = randomDrf0Program(smallCfg(seed, 2));
        for (const MultiProgram *mp : {&racy, &clean}) {
            Drf0ProgramReport online =
                checkProgramSampled(*mp, 30, seed);
            Drf0ProgramReport offline = offlineSampled(*mp, 30, seed);
            EXPECT_EQ(online.obeysDrf0, offline.obeysDrf0)
                << mp->name() << " seed " << seed;
            EXPECT_EQ(online.executions, offline.executions)
                << mp->name() << " seed " << seed;
            EXPECT_EQ(online.witness.size(), offline.witness.size())
                << mp->name() << " seed " << seed;
            EXPECT_EQ(online.witnessReport.races,
                      offline.witnessReport.races)
                << mp->name() << " seed " << seed;
        }
    }
}

TEST(Drf0Differential, MemoReturnsIdenticalReports)
{
    MultiProgram mp = randomRacyProgram(smallCfg(3, 2), 2);
    Drf0Memo memo;
    Drf0ProgramReport direct = checkProgramSampled(mp, 40, 5);
    Drf0ProgramReport first = memo.check(mp, 40, 5);
    Drf0ProgramReport second = memo.check(mp, 40, 5);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 1u);
    for (const Drf0ProgramReport *r : {&first, &second}) {
        EXPECT_EQ(r->obeysDrf0, direct.obeysDrf0);
        EXPECT_EQ(r->executions, direct.executions);
        EXPECT_EQ(r->witness.size(), direct.witness.size());
        EXPECT_EQ(r->witnessReport.races, direct.witnessReport.races);
    }
    // Different schedule count or seed is a different key.
    memo.check(mp, 40, 6);
    memo.check(mp, 41, 5);
    EXPECT_EQ(memo.misses(), 3u);
}

TEST(Drf0Differential, ContentHashIgnoresNameAndInitialsOrder)
{
    MultiProgram a("one"), b("two");
    Program p;
    Instruction st;
    st.op = Opcode::Store;
    st.addr = 3;
    st.imm = 7;
    st.src = -1;
    p.push(st);
    a.addProgram(p);
    b.addProgram(p);
    a.setInitial(1, 10);
    a.setInitial(2, 20);
    b.setInitial(2, 20);
    b.setInitial(1, 10);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    // Any instruction change must move the hash.
    MultiProgram c("three");
    Program q;
    st.imm = 8;
    q.push(st);
    c.addProgram(q);
    c.setInitial(1, 10);
    c.setInitial(2, 20);
    EXPECT_NE(a.contentHash(), c.contentHash());
    // Initial values participate too.
    MultiProgram d("four");
    d.addProgram(p);
    d.setInitial(1, 10);
    EXPECT_NE(a.contentHash(), d.contentHash());
}

} // namespace
} // namespace wo
