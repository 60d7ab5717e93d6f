/**
 * @file
 * Differential tests pinning the axiomatic backend to the rest of the
 * stack:
 *
 *  - Golden oracle: the "sc" model's allowed-outcome set must equal the
 *    brute-force interleaving enumeration of the idealized machine,
 *    exactly, for the whole shipped corpus and for a fleet of random
 *    generated programs (SC = "some interleaving produces it").
 *  - Simulator containment: every outcome any simulated machine
 *    produces must be allowed by the model bounding its policy — the
 *    corpus via the litmus runner's built-in axiom stage, random
 *    programs via direct System runs against sc/wb sets.
 *  - Mode agreement: the naive baseline enumerator and the pruned
 *    production enumerator compute identical allowed sets.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "axiom/enumerate.hh"
#include "core/idealized.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

using litmus_dsl::CompiledLitmus;

std::vector<CompiledLitmus>
loadCorpus()
{
    std::vector<CompiledLitmus> tests;
    for (const std::string &f :
         litmus_dsl::findLitmusFiles({WO_LITMUS_DIR}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));
    return tests;
}

/** Small branchy-but-enumerable generator shapes (spinAcquire off keeps
 * the interleaving space finite for the brute-force oracle). */
RandomWorkloadConfig
tinyCfg(std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 2;
    cfg.numLocks = 1;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 1;
    cfg.sectionsPerProc = 1;
    cfg.opsPerSection = 2;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = false;
    cfg.seed = seed;
    return cfg;
}

/** tinyCfg at three processors, where a read may be sourced by either
 * of two other processors. The naive mode does not finish these within
 * its 5,000,000-candidate cap, so the sc oracle and a recount of the
 * unsourceable path combinations pin them instead. */
RandomWorkloadConfig
tiny3Cfg(std::uint64_t seed)
{
    RandomWorkloadConfig cfg = tinyCfg(seed);
    cfg.numProcs = 3;
    return cfg;
}

/** The random fleet: >= 200 programs, half lock-disciplined (DRF0 by
 * construction), half with deliberate unguarded races. */
std::vector<MultiProgram>
randomFleet()
{
    std::vector<MultiProgram> fleet;
    for (std::uint64_t seed = 1; seed <= 100; ++seed)
        fleet.push_back(randomDrf0Program(tinyCfg(seed)));
    for (std::uint64_t seed = 1; seed <= 100; ++seed)
        fleet.push_back(randomRacyProgram(tinyCfg(1000 + seed), 1));
    return fleet;
}

/** Three-processor fleet: 10 lock-disciplined and 10 racy programs.
 * The pruned enumerator drops 177 of the former's 376 path
 * combinations as unsourceable, and 2,225 of the latter's 3,092. */
std::vector<MultiProgram>
random3Fleet()
{
    std::vector<MultiProgram> fleet;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        fleet.push_back(randomDrf0Program(tiny3Cfg(seed)));
        fleet.push_back(randomRacyProgram(tiny3Cfg(1000 + seed), 1));
    }
    return fleet;
}

TEST(AxiomDifferential, CorpusScEqualsIdealizedEnumeration)
{
    for (const CompiledLitmus &t : loadCorpus()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(t.program, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << t.name;

        OutcomeSet oracle = enumerateOutcomes(t.program);
        ASSERT_FALSE(oracle.bounded) << t.name;
        EXPECT_EQ(ax.allowed.at("sc"), oracle.outcomes) << t.name;

        // wb is an envelope: it may only widen the interleaving set.
        const std::set<RunResult> &wb = ax.allowed.at("wb");
        for (const RunResult &r : oracle.outcomes)
            EXPECT_TRUE(wb.count(r)) << t.name;
    }
}

TEST(AxiomDifferential, CorpusRunnerObservationsAreAllowed)
{
    litmus_dsl::RunnerOptions options;
    options.seeds = 20;
    ASSERT_TRUE(options.axiomCheck); // differential stage is default-on
    litmus_dsl::CorpusReport report =
        litmus_dsl::runCorpus(loadCorpus(), options);
    EXPECT_TRUE(report.pass);
    for (const litmus_dsl::TestReport &tr : report.tests) {
        EXPECT_TRUE(tr.axiomChecked) << tr.name;
        EXPECT_TRUE(tr.axiomComplete) << tr.name;
        EXPECT_TRUE(tr.pass) << tr.name << ": "
                             << (tr.failures.empty() ? ""
                                                     : tr.failures[0]);
        for (const litmus_dsl::CellReport &cell : tr.cells) {
            EXPECT_TRUE(cell.axiomForbidden.empty())
                << tr.name << " " << toString(cell.policy) << "/"
                << cell.variant << " observed forbidden outcome "
                << (cell.axiomForbidden.empty()
                        ? ""
                        : cell.axiomForbidden[0]);
        }
    }
}

TEST(AxiomDifferential, RandomProgramsScEqualsIdealizedEnumeration)
{
    int checked = 0;
    for (const MultiProgram &mp : randomFleet()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << "program seed-idx " << checked;

        OutcomeSet oracle = enumerateOutcomes(mp);
        ASSERT_FALSE(oracle.bounded) << "program seed-idx " << checked;
        ASSERT_EQ(ax.allowed.at("sc"), oracle.outcomes)
            << "program seed-idx " << checked << "\n"
            << mp.toString();
        ++checked;
    }
    EXPECT_GE(checked, 200);
}

/**
 * Path combinations of @p mp with a read that has no rf source, counted
 * one by one by the pruned mode's rule: a read takes a value-matching
 * write of another processor, the initial value when no po-earlier own
 * write to its address exists, or its own po-latest earlier write.
 */
std::uint64_t
unsourceableCombos(const MultiProgram &mp)
{
    axiom::PathSet ps = axiom::enumeratePaths(mp);
    const int n = mp.numProcs();
    std::vector<std::size_t> choice(n, 0);
    std::uint64_t count = 0;
    for (;;) {
        bool sourceable = true;
        for (ProcId p = 0; p < n && sourceable; ++p) {
            const auto &events = ps.perProc[p][choice[p]].events;
            for (std::size_t i = 0; i < events.size() && sourceable; ++i) {
                const axiom::AxEvent &r = events[i];
                if (!r.reads())
                    continue;
                const axiom::AxEvent *own = nullptr;
                for (std::size_t j = 0; j < i; ++j) {
                    if (events[j].writes() && events[j].addr == r.addr)
                        own = &events[j];
                }
                bool found = own ? own->valueWritten == r.valueRead
                                 : mp.initialValue(r.addr) == r.valueRead;
                for (ProcId q = 0; q < n && !found; ++q) {
                    if (q == p)
                        continue;
                    for (const axiom::AxEvent &w :
                         ps.perProc[q][choice[q]].events) {
                        found = found || (w.writes() && w.addr == r.addr &&
                                          w.valueWritten == r.valueRead);
                    }
                }
                sourceable = found;
            }
        }
        count += !sourceable;
        int p = n - 1;
        for (; p >= 0; --p) {
            if (++choice[p] < ps.perProc[p].size())
                break;
            choice[p] = 0;
        }
        if (p < 0)
            return count;
    }
}

TEST(AxiomDifferential, ThreeProcessorProgramsScEqualsIdealizedEnumeration)
{
    std::uint64_t combos = 0, prefiltered = 0;
    int checked = 0;
    for (const MultiProgram &mp : random3Fleet()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << "program idx " << checked;
        EXPECT_EQ(ax.stats.combosPrefiltered, unsourceableCombos(mp))
            << "program idx " << checked;
        combos += ax.stats.combos;
        prefiltered += ax.stats.combosPrefiltered;

        OutcomeSet oracle = enumerateOutcomes(mp);
        ASSERT_FALSE(oracle.bounded) << "program idx " << checked;
        ASSERT_EQ(ax.allowed.at("sc"), oracle.outcomes)
            << "program idx " << checked << "\n"
            << mp.toString();
        ++checked;
    }
    EXPECT_EQ(checked, 20);
    EXPECT_EQ(combos, 3468u);
    EXPECT_EQ(prefiltered, 2402u);
}

TEST(AxiomDifferential, RandomProgramSimulatorOutcomesWithinAllowed)
{
    const MachineSpec &bus = machineOrThrow("bus");
    int checked = 0;
    for (const MultiProgram &mp : randomFleet()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << "program seed-idx " << checked;

        // SC hardware must land inside the interleaving set...
        {
            System sys(mp, bus.config(PolicyKind::Sc));
            ASSERT_TRUE(sys.run()) << "program seed-idx " << checked;
            EXPECT_TRUE(ax.allowed.at("sc").count(sys.result()))
                << "SC outcome outside sc-allowed, seed-idx " << checked
                << "\n" << mp.toString();
        }
        // ...and the write-buffer machine inside the wb envelope.
        {
            System sys(mp, bus.config(PolicyKind::Relaxed));
            ASSERT_TRUE(sys.run()) << "program seed-idx " << checked;
            EXPECT_TRUE(ax.allowed.at("wb").count(sys.result()))
                << "Relaxed outcome outside wb-allowed, seed-idx "
                << checked << "\n" << mp.toString();
        }
        ++checked;
    }
    EXPECT_GE(checked, 200);
}

TEST(AxiomDifferential, NaiveAndPrunedModesAgreeOnRandomPrograms)
{
    // The naive mode is the bench baseline; it must compute the same
    // allowed sets wherever it completes. Keep to a slice of the fleet
    // — naive enumeration is exponentially more work by design.
    int compared = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        MultiProgram mp = randomDrf0Program(tinyCfg(seed));
        axiom::ModelContext ctx;
        axiom::AxiomLimits naive;
        naive.pruning = false;
        axiom::AxiomResult p =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        axiom::AxiomResult n =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx, naive);
        if (!p.complete || !n.complete)
            continue;
        EXPECT_EQ(p.allowed, n.allowed) << "seed " << seed;
        ++compared;
    }
    EXPECT_GE(compared, 5);
}

} // namespace
} // namespace wo
