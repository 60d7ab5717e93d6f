/**
 * @file
 * The exact DRF0 program check (checkProgram's memoized state search)
 * against independent oracles, on three kinds of program:
 *
 *  - the litmus corpus, whose verdicts are pinned;
 *  - seeded loop-free random programs, against enumeration of every
 *    interleaving with the bitset race oracle on each trace;
 *  - seeded spin-lock random programs, against seeded random-schedule
 *    walks with the same oracle: a race a walk finds must be found.
 *
 * In every third random program one processor's data accesses are all
 * relabeled as syncs, so its races are data-vs-sync ones; in two-processor
 * programs those are the only races. Every racy verdict's witness must end with a pair the bitset
 * oracle reports as a race. "Racy" generator output is not assumed
 * racy: its unguarded accesses can all be private in effect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "core/drf0_checker.hh"
#include "idealized_paths.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

/** The witness of a racy verdict ends with its racing pair, and the
 * bitset oracle reports that pair. */
void
expectWitnessShowsRace(const Drf0ProgramReport &r, const std::string &what)
{
    const ExecutionTrace &w = r.witness;
    ASSERT_GE(w.size(), 2) << what;
    Race pair{w.at(w.size() - 2).id, w.at(w.size() - 1).id};
    Drf0TraceReport oracle = checkTraceBitset(w);
    EXPECT_NE(std::find(oracle.races.begin(), oracle.races.end(), pair),
              oracle.races.end())
        << what << "\n" << w.toString();
    EXPECT_EQ(r.witnessReport.races, checkTrace(w).races) << what;
}

/** @p mp with every data access of processor @p relabeled turned into
 * the matching sync. */
MultiProgram
withSyncLabels(const MultiProgram &mp, ProcId relabeled)
{
    MultiProgram out(mp.name() + "+sync");
    for (ProcId p = 0; p < mp.numProcs(); ++p) {
        Program prog = mp.program(p);
        for (Instruction &insn : prog.code()) {
            if (p == relabeled && insn.op == Opcode::Load)
                insn.op = Opcode::SyncRead;
            else if (p == relabeled && insn.op == Opcode::Store)
                insn.op = Opcode::SyncWrite;
        }
        out.addProgram(prog);
    }
    for (const auto &[addr, value] : mp.initials())
        out.setInitial(addr, value);
    return out;
}

/** Seed @p seed's random program: lock-disciplined or with unguarded
 * accesses, every third one with sync relabels. Spinning programs get
 * two critical sections per processor below four processors, where the
 * state space stays small. */
MultiProgram
randomProgram(std::uint64_t seed, bool spin, int procs)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = procs;
    cfg.numLocks = 2;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 1;
    cfg.sectionsPerProc = spin && procs < 4 ? 2 : 1;
    cfg.opsPerSection = 2;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = spin;
    cfg.seed = seed;
    MultiProgram mp =
        seed % 2 ? randomRacyProgram(cfg, 2) : randomDrf0Program(cfg);
    return seed % 3 == 0 ? withSyncLabels(mp, seed / 3 % procs) : mp;
}

/** True when @p seed's program is lock-disciplined as generated. */
bool
drf0ByConstruction(std::uint64_t seed)
{
    return seed % 2 == 0 && seed % 3 != 0;
}

TEST(Drf0Exact, CorpusVerdictsAreExactAndPinned)
{
    const std::map<std::string, bool> expected = {
        {"barrier.litmus", true},       {"corr.litmus", false},
        {"corw.litmus", false},         {"coww.litmus", true},
        {"figure3.litmus", true},       {"iriw.litmus", false},
        {"lb.litmus", false},           {"mp_racy.litmus", false},
        {"mp_spin.litmus", false},      {"mp_sync.litmus", true},
        {"peterson.litmus", false},     {"peterson_sync.litmus", true},
        {"sb.litmus", false},           {"sb_fence.litmus", false},
        {"sb_onefence.litmus", false},  {"sb_sync.litmus", true},
        {"tas_counter.litmus", true},   {"tttas_counter.litmus", true},
        {"wrc.litmus", false},
    };
    std::vector<std::string> files =
        litmus_dsl::findLitmusFiles({WO_LITMUS_DIR});
    ASSERT_EQ(files.size(), expected.size());
    for (const std::string &f : files) {
        std::string base = f.substr(f.find_last_of('/') + 1);
        ASSERT_EQ(expected.count(base), 1u) << f;
        Drf0ProgramReport r =
            checkProgram(litmus_dsl::compileLitmusFile(f).program);
        EXPECT_EQ(r.obeysDrf0, expected.at(base)) << base;
        EXPECT_FALSE(r.bounded) << base;
        if (!r.obeysDrf0)
            expectWitnessShowsRace(r, base);
    }
}

TEST(Drf0Exact, LoopFreeProgramsMatchPathEnumeration)
{
    PathLimits limits;
    limits.maxExecutions = 10000;
    int decided = 0, racy = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        MultiProgram mp = randomProgram(seed, false, 2 + seed / 6 % 2);
        const std::string what = "seed " + std::to_string(seed);
        Drf0ProgramReport r = checkProgram(mp);
        ASSERT_FALSE(r.bounded) << what;
        if (drf0ByConstruction(seed)) {
            EXPECT_TRUE(r.obeysDrf0) << what;
        }
        if (!r.obeysDrf0)
            expectWitnessShowsRace(r, what);

        bool path_race = false;
        bool full = forEachExecution(
            mp, limits,
            [&](const ExecutionTrace &t, const RunResult &, bool) {
                path_race = !checkTraceBitset(t).raceFree;
                return !path_race;
            });
        if (!full && !path_race)
            continue; // enumeration capped: no verdict to compare
        ++decided;
        racy += path_race;
        EXPECT_EQ(r.obeysDrf0, !path_race) << what << "\n"
                                           << mp.toString();
    }
    // Enough programs of each verdict to make the comparison count.
    EXPECT_GE(decided, 80);
    EXPECT_GE(racy, 20);
    EXPECT_GE(decided - racy, 20);
}

TEST(Drf0Exact, SpinLockProgramsFindEveryWalkRace)
{
    int walk_racy = 0, exact_racy = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        MultiProgram mp = randomProgram(seed, true, 2 + seed / 6 % 3);
        const std::string what = "seed " + std::to_string(seed);
        Drf0ProgramReport r = checkProgram(mp);
        ASSERT_FALSE(r.bounded) << what;
        if (drf0ByConstruction(seed)) {
            EXPECT_TRUE(r.obeysDrf0) << what;
        }
        if (!r.obeysDrf0) {
            ++exact_racy;
            expectWitnessShowsRace(r, what);
        }
        ExecutionTrace walk;
        if (!randomWalkRace(mp, seed, 20, walk, 2000).raceFree) {
            ++walk_racy;
            EXPECT_FALSE(r.obeysDrf0) << what << "\n" << walk.toString();
        }
    }
    EXPECT_GE(walk_racy, 30);
    EXPECT_GE(exact_racy, walk_racy);
}

} // namespace
} // namespace wo
