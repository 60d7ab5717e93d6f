/**
 * @file
 * The System lifecycle contract behind the campaign pool: reuseFor()
 * must make a reused instance observably indistinguishable from a
 * freshly constructed one — same verdicts, same final state, same stats,
 * same reports — for every machine, policy, and workload shape.
 *
 * Structured as three layers:
 *  - lifecycle unit tests (replay identity, seed changes, program swaps,
 *    the guards that reject incompatible reuse);
 *  - pool behaviour (hit/miss accounting, incompatible configs rebuild);
 *  - pooled-vs-fresh differentials (a fuzz sweep of random DRF0/racy
 *    programs and the shipped litmus corpus, replayed through pooled
 *    instances), plus corpus reports identical at 1 and 4 workers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "consistency/policy.hh"
#include "cpu/program_builder.hh"
#include "litmus/runner.hh"
#include "obs/coverage.hh"
#include "obs/coverage_report.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

/** Everything a job's caller can observe, as one comparable string. */
std::string
snapshot(System &sys, bool finished)
{
    std::ostringstream oss;
    oss << "finished=" << finished << "\n";
    if (finished) {
        oss << "tick=" << sys.finishTick() << "\n"
            << "result=" << sys.result().toString() << "\n"
            << "trace=" << sys.trace().toString() << "\n";
        for (const std::string &problem : sys.auditCoherence())
            oss << "audit: " << problem << "\n";
    }
    sys.stats().dump(oss);
    return oss.str();
}

/** Construct fresh, run, snapshot. */
std::string
freshRun(const MultiProgram &prog, const SystemConfig &cfg)
{
    System sys(prog, cfg);
    bool finished = sys.run();
    return snapshot(sys, finished);
}

/** Run @p prog on @p pool's System for @p key and on a fresh
 * construction: the two must be indistinguishable. */
void
expectPooledMatchesFresh(SystemPool &pool, const std::string &key,
                         const MultiProgram &prog, const SystemConfig &cfg,
                         const std::string &what)
{
    System &sys = pool.acquire(key, prog, cfg);
    std::string pooled = snapshot(sys, sys.run());
    EXPECT_EQ(pooled, freshRun(prog, cfg)) << what;
}

RandomWorkloadConfig
workload(std::uint64_t seed, int procs = 2)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = procs;
    cfg.sectionsPerProc = 2;
    cfg.opsPerSection = 2;
    cfg.seed = seed;
    return cfg;
}

TEST(SystemLifecycle, ResetReplaysBitIdentically)
{
    // Reuse for the same program and config + run() must replay the
    // same job: same finish tick, registers, memory, trace and stats.
    for (const char *machine : {"bus", "net", "net-u"}) {
        const MachineSpec &m = machineOrThrow(machine);
        PolicyKind pk = m.base.cached ? PolicyKind::Def2Drf0 : PolicyKind::Sc;
        MultiProgram prog = randomDrf0Program(workload(7));
        SystemConfig cfg = m.config(pk, 11);

        System sys(prog, cfg);
        std::string first = snapshot(sys, sys.run());
        ASSERT_TRUE(sys.reuseFor(prog, cfg));
        std::string replay = snapshot(sys, sys.run());
        EXPECT_EQ(first, replay) << "machine " << machine;
    }
}

TEST(SystemLifecycle, ResetWithNewSeedMatchesFreshConstruction)
{
    // Reuse across jobs of one cell: only net.seed changes. The reused
    // instance must be indistinguishable from a new System at that seed.
    const MachineSpec &m = machineOrThrow("net");
    MultiProgram prog = randomDrf0Program(workload(3));
    SystemConfig cfg1 = m.config(PolicyKind::Def1, 101);
    SystemConfig cfg2 = m.config(PolicyKind::Def1, 202);

    System sys(prog, cfg1);
    sys.run();
    ASSERT_TRUE(sys.reuseFor(prog, cfg2));
    std::string reused = snapshot(sys, sys.run());
    EXPECT_EQ(reused, freshRun(prog, cfg2));

    // And back again: no residue from the second seed either.
    ASSERT_TRUE(sys.reuseFor(prog, cfg1));
    std::string again = snapshot(sys, sys.run());
    EXPECT_EQ(again, freshRun(prog, cfg1));
}

TEST(SystemLifecycle, LoadProgramSwapMatchesFreshConstruction)
{
    // Same topology, different program — the pool's common case when a
    // worker moves to the next litmus test in the same machine/policy
    // cell.
    const MachineSpec &m = machineOrThrow("bus");
    SystemConfig cfg = m.config(PolicyKind::Sc, 1);
    MultiProgram a = randomDrf0Program(workload(1));
    MultiProgram b = randomDrf0Program(workload(2));

    System sys(a, cfg);
    sys.run();
    ASSERT_TRUE(sys.reuseFor(b, cfg));
    EXPECT_EQ(snapshot(sys, sys.run()), freshRun(b, cfg));
}

TEST(SystemLifecycle, WarmCachesAreReplayedByLoadProgram)
{
    // The "net" machine pre-loads every touched line Shared; reuse must
    // rebuild that steady state for the next program, not leak the old
    // program's lines.
    const MachineSpec &m = machineOrThrow("net");
    ASSERT_TRUE(m.config().warmCaches);
    SystemConfig cfg = m.config(PolicyKind::Def2Drf0, 5);
    MultiProgram a = randomDrf0Program(workload(10));
    MultiProgram b = randomDrf0Program(workload(30));

    System sys(a, cfg);
    sys.run();
    ASSERT_TRUE(sys.reuseFor(b, cfg));
    EXPECT_EQ(snapshot(sys, sys.run()), freshRun(b, cfg));
}

TEST(SystemLifecycle, IncompatibleResetThrows)
{
    // An incompatible config is refused and changes nothing: the old
    // job still runs on the instance exactly as on a fresh one.
    MultiProgram prog = randomDrf0Program(workload(4));
    SystemConfig bus = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    SystemConfig net = machineOrThrow("net").config(PolicyKind::Sc, 1);
    System sys(prog, bus);
    EXPECT_FALSE(sys.reuseFor(prog, net));
    EXPECT_EQ(snapshot(sys, sys.run()), freshRun(prog, bus));

    // Policy changes rebuild too (policy objects are not resettable).
    SystemConfig bus2 = machineOrThrow("bus").config(PolicyKind::Def1, 1);
    EXPECT_FALSE(sys.reuseFor(prog, bus2));

    // So does any sub-config field.
    SystemConfig busEpoch = bus;
    busEpoch.cache.epochReserveClearing = !bus.cache.epochReserveClearing;
    EXPECT_FALSE(sys.reuseFor(prog, busEpoch));

    // But seed / tick-limit changes are the compatible kind.
    SystemConfig bus3 = bus;
    bus3.net.seed = 999;
    bus3.maxTicks = bus.maxTicks * 2;
    EXPECT_TRUE(sys.reuseFor(prog, bus3));
    EXPECT_TRUE(sys.run());
}

TEST(SystemLifecycle, ProcessorCountMismatchThrows)
{
    // A program with another processor count is refused and leaves the
    // built program in place: the old job still runs as on a fresh one.
    MultiProgram two = randomDrf0Program(workload(4, 2));
    MultiProgram four = randomDrf0Program(workload(4, 4));
    SystemConfig cfg = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    System sys(two, cfg);
    EXPECT_FALSE(sys.reuseFor(four, cfg));
    EXPECT_EQ(snapshot(sys, sys.run()), freshRun(two, cfg));
}

/** Two-processor store-buffering shape on @p x and @p y, with @p y
 * initialised to @p init. */
MultiProgram
storeBuffering(Addr x, Addr y, Word init)
{
    MultiProgram prog("sb");
    ProgramBuilder p0, p1;
    p0.store(x, 1).load(0, y).halt();
    p1.store(y, 2).load(0, x).halt();
    prog.addProgram(p0.build());
    prog.addProgram(p1.build());
    prog.setInitial(y, init);
    return prog;
}

/** The keys of @p m. */
template <class Map>
std::vector<Addr>
keysOf(const Map &m)
{
    std::vector<Addr> keys;
    for (const auto &[k, v] : m)
        keys.push_back(k);
    return keys;
}

TEST(SystemPool, ProgramSwapRefreshesTouchedAddresses)
{
    // A pooled System keeps its program and the program's touched
    // addresses across reloads of the same program. A program with the
    // same processor count but other addresses must replace both, and
    // going back must restore the first: the final-memory keys, the
    // trace's initial values and the outcome match a fresh construction
    // on every run. "net" pre-loads every touched line into the caches,
    // so stale addresses would also skew the simulation.
    const MultiProgram a = storeBuffering(10, 11, 4);
    const MultiProgram b = storeBuffering(40, 52, 7);
    const SystemConfig cfg =
        machineOrThrow("net").config(PolicyKind::Def2Drf0, 3);
    SystemPool pool;
    for (const MultiProgram *prog : {&a, &b, &a, &a}) {
        System &sys = pool.acquire("net/def2drf0", *prog, cfg);
        System fresh(*prog, cfg);
        ASSERT_TRUE(sys.run());
        ASSERT_TRUE(fresh.run());
        EXPECT_EQ(keysOf(sys.result().finalMemory),
                  prog->touchedAddrs());
        EXPECT_EQ(sys.trace().initials(), fresh.trace().initials());
        EXPECT_EQ(sys.result(), fresh.result());
        EXPECT_EQ(snapshot(sys, true), snapshot(fresh, true));
    }
    EXPECT_EQ(pool.builds(), 1u);
    EXPECT_EQ(pool.reuses(), 3u);
}

TEST(SystemPool, ReusesCompatibleAndRebuildsIncompatible)
{
    SystemPool pool;
    MultiProgram prog = randomDrf0Program(workload(4));
    SystemConfig sc = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    SystemConfig def1 = machineOrThrow("bus").config(PolicyKind::Def1, 1);

    System &a = pool.acquire("bus/SC", prog, sc);
    EXPECT_TRUE(a.run());
    EXPECT_EQ(pool.builds(), 1u);
    EXPECT_EQ(pool.reuses(), 0u);

    // Same key, compatible config: the same instance comes back reset.
    sc.net.seed = 42;
    System &b = pool.acquire("bus/SC", prog, sc);
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(b.run());
    EXPECT_EQ(pool.reuses(), 1u);

    // Different cell key: a second instance.
    System &c = pool.acquire("bus/WO-Def1", prog, def1);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(pool.builds(), 2u);

    // Same key but incompatible config (policy changed under the key —
    // a caller bug, but the pool must still produce a correct System).
    System &d = pool.acquire("bus/SC", prog, def1);
    EXPECT_TRUE(d.run());
    EXPECT_EQ(pool.builds(), 3u);
    EXPECT_EQ(pool.reuses(), 1u);

    // A construction that throws is not a build, and leaves the key's
    // cached instance in place for the next compatible acquire.
    SystemConfig illegal =
        machineOrThrow("bus-u").config(PolicyKind::Def2Drf0, 1);
    EXPECT_THROW(pool.acquire("bus/SC", prog, illegal),
                 std::invalid_argument);
    EXPECT_EQ(pool.builds(), 3u);
    EXPECT_EQ(&pool.acquire("bus/SC", prog, def1), &d);
    EXPECT_EQ(pool.reuses(), 2u);

    pool.clear();
    EXPECT_EQ(pool.builds(), 0u);
    EXPECT_EQ(pool.reuses(), 0u);
}

TEST(SystemPool, PooledRunsMatchFreshRunsAcrossManyRandomPrograms)
{
    // Fuzz the reuse path: >=100 random programs (DRF0-disciplined and
    // racy alternating) replayed through pooled instances, each checked
    // against a fresh construction.
    SystemPool pool;
    int checked = 0;
    for (const char *machine : {"bus", "net", "net-u"}) {
        const MachineSpec &m = machineOrThrow(machine);
        std::vector<PolicyKind> policies =
            m.base.cached ? std::vector<PolicyKind>{PolicyKind::Sc,
                                               PolicyKind::Def2Drf0}
                     : std::vector<PolicyKind>{PolicyKind::Sc,
                                               PolicyKind::Def1};
        for (PolicyKind pk : policies) {
            for (int i = 0; i < 18; ++i) {
                RandomWorkloadConfig w = workload(1000 + i, 2);
                MultiProgram prog = (i % 2 == 0)
                                        ? randomDrf0Program(w)
                                        : randomRacyProgram(w, 1);
                SystemConfig cfg =
                    m.config(pk, campaignJobSeed(99, i));
                expectPooledMatchesFresh(
                    pool, m.name + "/" + toString(pk), prog, cfg,
                    m.name + "/" + toString(pk) + " program " +
                        std::to_string(i));
                ++checked;
            }
        }
    }
    EXPECT_GE(checked, 100);
    EXPECT_EQ(pool.builds(), 6u); // one per (machine, policy) cell
    EXPECT_EQ(pool.reuses(), static_cast<std::uint64_t>(checked - 6));
}

/** The corpus report (text + JSON + merged stats) as one string. */
std::string
corpusBytes(const std::vector<litmus_dsl::CompiledLitmus> &tests,
            const litmus_dsl::RunnerOptions &options)
{
    litmus_dsl::CorpusReport report = litmus_dsl::runCorpus(tests, options);
    std::ostringstream oss;
    litmus_dsl::printReport(oss, report);
    litmus_dsl::writeJsonReport(oss, report);
    report.stats.dump(oss);
    return oss.str();
}

std::vector<litmus_dsl::CompiledLitmus>
litmusCorpus()
{
    std::vector<litmus_dsl::CompiledLitmus> tests;
    for (const std::string &f :
         litmus_dsl::findLitmusFiles({WO_LITMUS_DIR}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));
    return tests;
}

TEST(SystemPool, PooledRunsMatchFreshRunsAcrossLitmusCorpus)
{
    // The shipped litmus corpus on every registered machine under every
    // runner policy, 3 seeds each, exactly as wo-litmus acquires its
    // Systems: every pooled run must match a fresh construction. The
    // fleet covers eviction (bus-cap), L2s and MESIF forwarders, so the
    // in-place reset of every per-address table is compared with fresh
    // construction wherever it runs.
    std::vector<litmus_dsl::CompiledLitmus> tests = litmusCorpus();
    ASSERT_GE(tests.size(), 15u);
    const std::vector<PolicyKind> policies =
        litmus_dsl::RunnerOptions().policies;
    SystemPool pool;
    int checked = 0;
    for (const litmus_dsl::CompiledLitmus &test : tests) {
        for (const MachineSpec *m : parseMachineList("*")) {
            for (PolicyKind pk : policies) {
                const std::string key = m->name + "/" + toString(pk);
                for (int seed = 0; seed < 3; ++seed) {
                    SystemConfig cfg =
                        m->config(pk, campaignJobSeed(7, seed));
                    if (!cfg.cached && policyOf(pk).requiresCache) {
                        // Illegal pair: the pool must refuse it too.
                        EXPECT_THROW(pool.acquire(key, test.program, cfg),
                                     std::invalid_argument);
                        continue;
                    }
                    expectPooledMatchesFresh(pool, key, test.program, cfg,
                                             test.name + " " + key +
                                                 " seed " +
                                                 std::to_string(seed));
                    ++checked;
                }
            }
        }
    }
    EXPECT_GE(checked, 500);
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(SystemPool, CorpusReportsIdenticalAcrossThreadCounts)
{
    // The whole corpus report (verdicts, histograms, JSON, merged stats)
    // from pooled runs must not depend on how jobs spread over workers.
    std::vector<litmus_dsl::CompiledLitmus> tests = litmusCorpus();
    litmus_dsl::RunnerOptions options;
    options.seeds = 3; // keep the test suite fast
    options.threads = 1;
    std::string golden = corpusBytes(tests, options);
    options.threads = 4;
    EXPECT_EQ(corpusBytes(tests, options), golden);
}

TEST(SystemPool, CorpusStatsEqualFreshRunsMergedByName)
{
    // Oracle for the runner's per-worker totals: the merged report stats
    // must equal merging, by name, a fresh System's stats for every
    // finished job, and the coverage counters must equal merging a
    // private CoverageMap per job. The fleet's processor counts vary
    // across tests, so pooled Systems are replaced mid-corpus and their
    // stats totals take the fold-by-name path while the worker's map
    // keeps counting; comparing 1 against 4 threads alone would miss an
    // error that is the same on both sides.
    std::vector<litmus_dsl::CompiledLitmus> tests = litmusCorpus();
    const std::vector<const MachineSpec *> machines = parseMachineList("*");
    litmus_dsl::RunnerOptions options;
    options.seeds = 2;
    options.coverage = true;

    StatSet expected;
    CoverageMap expectedCov;
    for (const litmus_dsl::CompiledLitmus &test : tests) {
        int index = 0; // each test's fan numbers its jobs from 0
        for (PolicyKind pk : options.policies) {
            for (const MachineSpec *m : machines) {
                for (int s = 0; s < options.seeds; ++s, ++index) {
                    SystemConfig cfg = m->config(
                        pk, campaignJobSeed(options.baseSeed, index));
                    try {
                        System::checkConfig(test.program, cfg);
                    } catch (const std::invalid_argument &) {
                        continue; // unrunnable cell: runs 0
                    }
                    CoverageMap cov; // this job's own map
                    cfg.coverage = &cov;
                    System sys(test.program, cfg);
                    if (sys.run())
                        expected.merge(sys.stats());
                    expectedCov.merge(cov);
                }
            }
        }
    }
    ASSERT_FALSE(expected.all().empty());
    StandingCoverage expectedRows;
    expectedRows.addCoverage(expectedCov);
    ASSERT_FALSE(expectedRows.transitions.empty());
    ASSERT_FALSE(expectedRows.stalls.empty());
    ASSERT_FALSE(expectedRows.buckets.empty());

    for (int threads : {1, 4}) {
        options.threads = threads;
        litmus_dsl::CorpusReport report =
            litmus_dsl::runCorpus(tests, options, machines);
        EXPECT_EQ(report.stats.all(), expected.all())
            << "threads=" << threads;
        StandingCoverage rows = litmus_dsl::standingCoverage(report);
        EXPECT_EQ(rows.transitions, expectedRows.transitions)
            << "threads=" << threads;
        EXPECT_EQ(rows.stalls, expectedRows.stalls)
            << "threads=" << threads;
        EXPECT_EQ(rows.buckets, expectedRows.buckets)
            << "threads=" << threads;
    }
}

} // namespace
} // namespace wo
