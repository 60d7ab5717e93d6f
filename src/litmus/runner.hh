/**
 * @file
 * Batch litmus runner: fan a corpus of compiled litmus tests across
 * seeds x consistency policies x system configurations on the Campaign
 * engine, evaluate each run against the test's clause, and aggregate
 * per-test outcome histograms plus PASS/FAIL verdicts.
 *
 * runCorpus is one campaign fan over the whole corpus: one analysis job
 * per test (the exact DRF0 verdict, then the axiomatic allowed sets
 * under it), then every test's simulation jobs, one per (cell, seed).
 * The calling thread judges the tests in order once the fan is done.
 *
 * Determinism contract: every simulation job's RNG seed derives from
 * (baseSeed, job index within the test's fan) only, so a test's report
 * and repro lines do not depend on the tests run beside it; results
 * merge in test and job-index order, so reports are byte-identical for
 * any --threads value.
 *
 * Verdict semantics (per test):
 *  - `forbidden (c)`: c must never be observed under a policy that
 *    promises sequential consistency for the program — SC and Def1
 *    always, the Definition 2 implementations when the program is DRF0
 *    (exact check). Hits under Relaxed (or under Def2 for racy
 *    programs) are contract-permitted and only reported.
 *  - `forbidden always (c)`: enforced under every policy (coherence and
 *    fence tests, whose guarantee survives even the Relaxed machine).
 *  - `exists (c)`: c must be observed at least once under the Relaxed
 *    policy across the seed/config fan (the weak machine exhibits it);
 *    other policies only report.
 *  - Under the SC policy every recorded trace must additionally pass the
 *    SC verifier; under Def1/Def2 policies the same holds when the
 *    program is DRF0 (the paper's Definition 2 contract).
 *
 * Each forbidden-outcome, non-SC and axiom-forbidden failure line ends
 * with "; repro: wo-trace --machine=M --policy=P --seed=S FILE", naming
 * the cell's first offending job; wo-trace replays it exactly.
 */

#ifndef WO_LITMUS_RUNNER_HH
#define WO_LITMUS_RUNNER_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "axiom/enumerate.hh"
#include "consistency/policy.hh"
#include "litmus/compiler.hh"
#include "obs/coverage.hh"
#include "obs/coverage_report.hh"
#include "sim/stats.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

namespace wo {
namespace litmus_dsl {

/**
 * The default three-machine set from the machine registry: "bus"
 * (cached, +WB under Relaxed), "net" (cached, warm, jittered network),
 * and "net-u" (uncached network, whose banked memory reorders
 * same-processor writes — the Figure 1 case-2 configuration).
 *
 * Policies whose mechanisms need a cache (the Definition 2
 * implementations keep reserve bits there) are skipped on uncached
 * machines — their cells report runs = 0.
 */
std::vector<const MachineSpec *> defaultMachines();

/** Runner knobs. */
struct RunnerOptions
{
    int seeds = 20;              ///< seeds per (policy, variant)
    int threads = 0;             ///< 0: WO_THREADS / hardware
    std::uint64_t baseSeed = 1;  ///< campaign seed-stream base
    bool verify = true;          ///< SC-verify every recorded trace
    std::uint64_t maxVerifyStates = 1000000;
    /// Kept only for bench/e2e's replica; deleted in ROADMAP item 6 step 2.
    static constexpr int drf0Schedules = 200;

    /**
     * Record coverage counters (protocol transitions, stall reasons,
     * latency buckets) into CorpusReport::coverage. Each campaign
     * worker records into its own CoverageMap, and the worker maps are
     * summed per key when the corpus is done, so the merged counts —
     * like every report — are the same for any --threads value. Off by
     * default: with coverage off the instrumented sites cost one
     * thread-local load and branch each, and reports are bit-unchanged
     * either way.
     */
    bool coverage = false;

    std::vector<PolicyKind> policies = {
        PolicyKind::Sc,
        PolicyKind::Def1,
        PolicyKind::Def2Drf0,
        PolicyKind::Relaxed,
    };

    /**
     * Differential axiomatic stage (on by default): enumerate each
     * test's allowed-outcome sets under the axiomatic models and fail
     * any cell whose simulator-observed outcome the policy's bounding
     * model forbids — SC observations must be "sc"-allowed, the weak
     * ordering policies "drf0sc"-allowed, Relaxed "wb"-allowed. A
     * forbidden observation's failure message carries the witness
     * cycle (or reports that no candidate execution reaches the
     * outcome at all). When enumeration is truncated by a cap the
     * verdict is advisory only (absence from a lower bound proves
     * nothing).
     */
    bool axiomCheck = true;

    /** Caps for the axiomatic enumeration. */
    axiom::AxiomLimits axiomLimits;
};

/** Aggregate of one test x policy x variant cell. */
struct CellReport
{
    PolicyKind policy = PolicyKind::Sc;
    std::string variant;

    int runs = 0;
    int finished = 0;    ///< runs where every processor halted
    int hits = 0;        ///< finished runs satisfying the clause condition
    int scOk = 0;        ///< traces the SC verifier accepted
    int scViolations = 0;///< traces proven not sequentially consistent
    int scUnknown = 0;   ///< verifier state-cap exceeded

    bool enforced = false; ///< this cell's hits gate PASS/FAIL
    bool pass = true;
    std::string note; ///< short reason shown in the table

    /** Outcome-key -> count over finished runs. */
    std::map<std::string, int> histogram;

    /** Axiomatic model bounding this cell's policy (empty when the
     * axiom stage is off). */
    std::string axiomModel;

    /** Observed outcome keys the bounding model forbids. Fails the
     * cell when enumeration was complete. */
    std::vector<std::string> axiomForbidden;

    bool operator==(const CellReport &) const = default;
};

/** One model's allowed outcomes, projected to clause outcome keys. */
struct ModelAllowedReport
{
    std::string model;
    std::vector<std::string> outcomes; ///< sorted outcome keys

    bool operator==(const ModelAllowedReport &) const = default;
};

/** Aggregate of one test over the whole fan. */
struct TestReport
{
    std::string name;
    std::string file;
    std::string clause; ///< rendered source form

    bool drf0 = false;        ///< DRF0 verdict (checkProgram)
    bool drf0Bounded = false; ///< the check hit its state cap

    std::vector<CellReport> cells; ///< policy-major, variant-minor order

    bool axiomChecked = false; ///< the axiomatic stage ran
    bool axiomComplete = true; ///< enumeration was not truncated
    std::vector<ModelAllowedReport> axiomAllowed; ///< per model, sorted

    bool pass = true;
    std::vector<std::string> failures; ///< human-readable reasons

    bool operator==(const TestReport &) const = default;
};

/** Registry metadata of one machine in the fan (carried into the
 * standing coverage report so diffs survive registry growth). */
struct MachineInfo
{
    std::string name;
    std::string protocol; ///< "msi".."mesif", or "none" (uncached)
    int cacheLevels = 0;  ///< 0 for uncached machines
};

/** Whole-corpus result. */
struct CorpusReport
{
    std::vector<TestReport> tests;
    bool pass = true;
    int seeds = 0;
    std::uint64_t baseSeed = 1;

    /** Simulation stats over every finished run: counters summed,
     * high-water marks maxed, so independent of job order. */
    StatSet stats;

    /** Coverage counters summed over every run (all zero unless
     * RunnerOptions::coverage was set); they do not depend on job
     * order. Outcome coverage is not here: it is the cells' histograms
     * against the axiom stage's allowed sets. */
    CoverageMap coverage;

    /** The machine fan this corpus ran against. */
    std::vector<MachineInfo> machines;
};

/**
 * Collect .litmus files from files and/or directories (directories are
 * scanned non-recursively, entries sorted by name). Throws
 * std::runtime_error for paths that do not exist.
 */
std::vector<std::string>
findLitmusFiles(const std::vector<std::string> &paths);

/** Run the corpus; deterministic for fixed (options, machines).
 * Throws std::invalid_argument, before allocating anything per job,
 * when the fan has more than INT_MAX jobs. */
CorpusReport runCorpus(const std::vector<CompiledLitmus> &tests,
                       const RunnerOptions &options,
                       const std::vector<const MachineSpec *> &machines =
                           defaultMachines());

/** Human-readable report: per-test tables, histograms, final summary.
 * @p coverage adds the per-policy observed/unobserved outcome lines
 * (wo-litmus --coverage-report), derived from each cell's histogram and
 * the axiom stage's allowed sets. */
void printReport(std::ostream &os, const CorpusReport &report,
                 bool histograms = true, bool coverage = false);

/** Machine-readable JSON report (stable key order). Each test's
 * "coverage" block holds the same observed/unobserved outcome split as
 * printReport's coverage lines, per policy and per machine. */
void writeJsonReport(std::ostream &os, const CorpusReport &report);

/** Build a one-run StandingCoverage (runs = 1, seeds/baseSeed meta,
 * machine metadata, every CoverageMap counter, and outcome rows from
 * the cells of every test the axiom stage checked) from a corpus run
 * with RunnerOptions::coverage set. wo-litmus --coverage-report=FILE merges
 * this into the existing on-disk report; StandingCoverage::write emits
 * the canonical wocover format (stable section order, sorted lines —
 * byte-identical for any --threads value) that wo-cover renders. */
StandingCoverage standingCoverage(const CorpusReport &report);

} // namespace litmus_dsl
} // namespace wo

#endif // WO_LITMUS_RUNNER_HH
