#include "litmus/runner.hh"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "core/drf0_checker.hh"
#include "core/sc_verifier.hh"
#include "litmus/expect.hh"
#include "sim/json.hh"
#include "workload/campaign.hh"

namespace wo {
namespace litmus_dsl {

namespace {

/** Result of one (test, policy, variant, seed) job. */
struct JobOut
{
    bool ran = false;
    bool finished = false;
    bool hit = false;
    int scStatus = -1; ///< -1 unfinished, 0 ok, 1 violation, 2 unknown
    std::string key;
};

/** Static description of one job (shared by all seeds of a cell, and by
 * every test: the cells are the same policy x machine fan throughout). */
struct CellPlan
{
    PolicyKind policy;
    const MachineSpec *machine;
    SystemConfig cfg;     ///< the machine's config; jobs set net.seed
    std::string poolKey;  ///< "machine/policy", the SystemPool cell key
    std::size_t keyIndex; ///< dense index of poolKey (Worker::perKey)
};

/**
 * One campaign worker's share of a runCorpus call, indexed by
 * CampaignJob::worker: no two jobs use one at once, so nothing here is
 * locked. Every finished job adds its run to perKey[k], the total that
 * follows the worker's pooled System for pool key k, with
 * StatSet::accumulate: no job copies a StatSet or looks a name up. A
 * replacement System may lay its slots out differently, so when the
 * pool replaces one its total is folded into retired by name first.
 * Sum and max do not depend on order, nor does coverage's element-wise
 * sum, so the merged totals are the same however jobs spread over
 * workers.
 */
struct Worker
{
    CoverageMap cov; ///< declared before pool: its Systems point here
    SystemPool pool;
    ScVerifier verifier; ///< reused by every job's SC check
    std::vector<StatSet> perKey;
    StatSet retired;
};

/** What every job of one test reads, planned before the fan. */
struct TestPlan
{
    ClauseVars clause;          ///< the clause, resolved against the test
    std::vector<char> runnable; ///< per cell: the machine takes the policy
};

/** @p r projected onto @p test's clause outcome key: the same projection
 * for simulated and axiom-allowed outcomes. */
std::string
projectKey(const CompiledLitmus &test, const TestPlan &plan,
           const RunResult &r)
{
    return outcomeKey(plan.clause.vars(), clauseOutcome(test, r),
                      test.addrOf);
}

/**
 * The analysis job of one test. The DRF0 verdict gates which policies
 * promise SC results for the program. With the axiom stage on, each
 * model's allowed outcomes under that verdict follow, projected onto
 * clause outcome keys. Writes only @p tr's analysis fields.
 */
void
analyzeTest(const CompiledLitmus &test, const TestPlan &plan,
            const RunnerOptions &options, TestReport &tr)
{
    Drf0ProgramReport drf0 = checkProgram(test.program);
    tr.drf0 = drf0.obeysDrf0;
    tr.drf0Bounded = drf0.bounded;
    if (!options.axiomCheck)
        return;
    axiom::ModelContext mctx;
    mctx.programDrf0 = tr.drf0;
    axiom::AxiomResult ax = axiom::enumerateAllowed(
        test.program, axiom::axiomModels(), mctx, options.axiomLimits);
    tr.axiomChecked = true;
    tr.axiomComplete = ax.complete;
    for (const auto &[model, set] : ax.allowed) {
        std::set<std::string> keys;
        for (const RunResult &r : set)
            keys.insert(projectKey(test, plan, r));
        tr.axiomAllowed.push_back({model, {keys.begin(), keys.end()}});
    }
}

/** One simulation job: @p test on @p cell's machine and policy at network
 * seed @p seed, run on worker @p w's pooled System. */
JobOut
simulate(const CompiledLitmus &test, const TestPlan &plan,
         const CellPlan &cell, std::uint64_t seed,
         const RunnerOptions &options, Worker &w)
{
    SystemConfig cfg = cell.cfg;
    cfg.net.seed = seed;
    if (options.coverage)
        cfg.coverage = &w.cov;
    // Reuse this worker's System for the cell: a reset replays
    // bit-identically, a miss builds one.
    const std::uint64_t builds = w.pool.builds();
    System &sys = w.pool.acquire(cell.poolKey, test.program, cfg);
    StatSet &total = w.perKey[cell.keyIndex];
    if (w.pool.builds() != builds) {
        w.retired.merge(total);
        total.clear();
    }
    JobOut out;
    out.ran = true;
    out.finished = sys.run();
    if (out.finished) {
        out.hit = plan.clause.holds(sys);
        plan.clause.appendKey(sys, out.key);
        ScReport sc = w.verifier.check(
            sys.trace(), {options.maxVerifyStates}, /*keepWitness=*/false);
        out.scStatus = sc.verdict == ScVerdict::Sc      ? 0
                       : sc.verdict == ScVerdict::NotSc ? 1
                                                        : 2;
        total.accumulate(sys.stats());
    }
    return out;
}

/**
 * Judge one test from its analysis (already in @p tr) and its
 * simulation jobs @p outs, cell-major: aggregate each cell, apply the
 * clause and the SC promise, check every observed outcome against the
 * bounding model's allowed set, and judge `exists`.
 */
void
judgeTest(const CompiledLitmus &test, const TestPlan &plan,
          const std::vector<CellPlan> &cells, const JobOut *outs,
          const RunnerOptions &options, TestReport &tr)
{
    const int per_cell = options.seeds;

    // "; repro: <wo-trace command>" for the first job of cell ci that
    // satisfies offends: a fresh System at the job's seed repeats the
    // pooled run exactly. Scans outs only when a failure is pushed.
    auto repro = [&](std::size_t ci, auto offends) {
        for (int s = 0; s < per_cell; ++s) {
            int index = static_cast<int>(ci) * per_cell + s;
            if (!offends(outs[index]))
                continue;
            return "; repro: wo-trace --machine=" +
                   cells[ci].machine->name +
                   " --policy=" + cliName(cells[ci].policy) + " --seed=" +
                   std::to_string(campaignJobSeed(options.baseSeed, index)) +
                   " " + test.file;
        }
        return std::string();
    };

    // Aggregate in job order.
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        CellReport cell;
        cell.policy = cells[ci].policy;
        cell.variant = cells[ci].machine->name;
        for (int s = 0; s < per_cell; ++s) {
            const JobOut &o = outs[ci * static_cast<std::size_t>(per_cell) +
                                   static_cast<std::size_t>(s)];
            if (!o.ran)
                continue;
            ++cell.runs;
            if (!o.finished)
                continue;
            ++cell.finished;
            if (o.hit)
                ++cell.hits;
            if (o.scStatus == 0)
                ++cell.scOk;
            else if (o.scStatus == 1)
                ++cell.scViolations;
            else if (o.scStatus == 2)
                ++cell.scUnknown;
            ++cell.histogram[o.key];
        }

        bool promised = policyOf(cell.policy).promisesSc(tr.drf0);
        if (test.clause.kind == ClauseKind::Forbidden) {
            cell.enforced = promised || test.clause.always;
            if (cell.enforced && cell.hits > 0) {
                cell.pass = false;
                cell.note = "forbidden outcome observed";
                tr.failures.push_back(
                    toString(cell.policy) + "/" + cell.variant +
                    ": forbidden outcome observed " +
                    std::to_string(cell.hits) + "x" +
                    repro(ci, [](const JobOut &o) {
                        return o.finished && o.hit;
                    }));
            } else if (!cell.enforced && cell.hits > 0) {
                cell.note = "permitted";
            }
        }
        if (promised && cell.scViolations > 0) {
            cell.pass = false;
            cell.note = cell.note.empty()
                            ? "non-SC execution"
                            : cell.note + "; non-SC execution";
            tr.failures.push_back(
                toString(cell.policy) + "/" + cell.variant + ": " +
                std::to_string(cell.scViolations) +
                " executions proven not sequentially consistent" +
                repro(ci, [](const JobOut &o) { return o.scStatus == 1; }));
        }
        tr.cells.push_back(std::move(cell));
    }

    // Differential axiomatic stage: every simulator-observed outcome
    // must be allowed by the model bounding its policy.
    if (tr.axiomChecked) {
        axiom::ModelContext mctx;
        mctx.programDrf0 = tr.drf0;
        axiom::AddrNamer namer = axiom::namerFrom(test.addrOf);
        for (std::size_t ci = 0; ci < tr.cells.size(); ++ci) {
            CellReport &cell = tr.cells[ci];
            const axiom::AxiomaticModel *model =
                axiom::modelForPolicy(cell.policy);
            cell.axiomModel = model->name();
            const std::vector<std::string> *allowed = nullptr;
            for (const ModelAllowedReport &mar : tr.axiomAllowed) {
                if (mar.model == cell.axiomModel)
                    allowed = &mar.outcomes;
            }
            for (const auto &[key, count] : cell.histogram) {
                if (!allowed || !std::binary_search(allowed->begin(),
                                                    allowed->end(), key))
                    cell.axiomForbidden.push_back(key);
            }
            if (cell.axiomForbidden.empty())
                continue;
            if (!tr.axiomComplete) {
                // A truncated allowed set is a lower bound: absence
                // proves nothing, so only advise.
                cell.note = cell.note.empty()
                                ? "axiom-incomplete"
                                : cell.note + "; axiom-incomplete";
                continue;
            }
            cell.pass = false;
            cell.note = cell.note.empty()
                            ? "axiom-forbidden outcome"
                            : cell.note + "; axiom-forbidden outcome";
            const std::string &key = cell.axiomForbidden.front();
            axiom::Explanation ex = axiom::explainOutcome(
                test.program, {model}, mctx,
                [&](const RunResult &r) {
                    return projectKey(test, plan, r) == key;
                },
                options.axiomLimits, namer);
            std::string why;
            if (!ex.matched) {
                why = "no candidate execution reaches this outcome";
            } else if (!ex.models[0].allowed &&
                       !ex.models[0].cycle.empty()) {
                why = "witness cycle: " + ex.models[0].cycle;
            } else {
                why = "rejected by the model";
            }
            tr.failures.push_back(
                toString(cell.policy) + "/" + cell.variant + ": observed {" +
                key + "} forbidden by model " + model->name() + " — " + why +
                repro(ci, [&](const JobOut &o) {
                    return o.finished && o.key == key;
                }));
        }
    }

    // `exists` is judged over the whole Relaxed fan: the weak machine
    // must exhibit the outcome somewhere.
    if (test.clause.kind == ClauseKind::Exists) {
        bool have_relaxed = false;
        int relaxed_hits = 0;
        for (const CellReport &cell : tr.cells) {
            if (cell.policy == PolicyKind::Relaxed) {
                have_relaxed = true;
                relaxed_hits += cell.hits;
            }
        }
        if (have_relaxed && relaxed_hits == 0) {
            tr.failures.push_back(
                "exists condition never observed under Relaxed");
        }
    }

    tr.pass = tr.failures.empty();
}

/** Cells of one test that share a policy (or a single cell). */
using CellGroup = std::vector<const CellReport *>;

/** Allowed outcome keys split by whether a cell histogram counted them. */
struct OutcomeSplit
{
    std::vector<std::string> observed;
    std::vector<std::string> unobserved;
};

/**
 * Outcome coverage of @p cells (one policy's variants, or one cell),
 * derived from the report: the allowed keys of the cells' bounding model
 * (TestReport::axiomAllowed) split by whether any of the cells'
 * histograms counted them. The text and JSON coverage sections and the
 * standing report's outcome rows all read coverage through here.
 */
OutcomeSplit
splitOutcomes(const TestReport &tr, const CellGroup &cells)
{
    OutcomeSplit split;
    for (const ModelAllowedReport &mar : tr.axiomAllowed) {
        if (mar.model != cells.front()->axiomModel)
            continue;
        for (const std::string &key : mar.outcomes) {
            bool seen = std::any_of(cells.begin(), cells.end(),
                                    [&](const CellReport *c) {
                                        return c->histogram.count(key) > 0;
                                    });
            (seen ? split.observed : split.unobserved).push_back(key);
        }
    }
    return split;
}

/** @p tr's cells grouped by policy, in options order. Empty unless the
 * axiom stage ran: coverage is measured against its allowed sets. */
std::vector<CellGroup>
cellsByPolicy(const TestReport &tr)
{
    std::vector<CellGroup> groups;
    if (!tr.axiomChecked)
        return groups;
    for (const CellReport &cell : tr.cells) {
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const CellGroup &g) {
                                   return g.front()->policy == cell.policy;
                               });
        if (it == groups.end())
            groups.push_back({&cell});
        else
            it->push_back(&cell);
    }
    return groups;
}

/** @p items as a one-line JSON array of strings. */
void
writeJsonList(std::ostream &os, const std::vector<std::string> &items)
{
    os << "[";
    for (std::size_t k = 0; k < items.size(); ++k)
        os << (k ? ", " : "") << "\"" << jsonEscape(items[k]) << "\"";
    os << "]";
}

/** The "observed"/"unobserved" JSON members of @p split. */
void
writeJsonSplit(std::ostream &os, const OutcomeSplit &split)
{
    os << "\"observed\": ";
    writeJsonList(os, split.observed);
    os << ", \"unobserved\": ";
    writeJsonList(os, split.unobserved);
}

} // namespace

std::vector<const MachineSpec *>
defaultMachines()
{
    return {&machineOrThrow("bus"), &machineOrThrow("net"),
            &machineOrThrow("net-u")};
}

std::vector<std::string>
findLitmusFiles(const std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        fs::path path(p);
        if (fs::is_directory(path)) {
            std::vector<std::string> here;
            for (const fs::directory_entry &e :
                 fs::directory_iterator(path)) {
                if (e.is_regular_file() &&
                    e.path().extension() == ".litmus") {
                    here.push_back(e.path().string());
                }
            }
            std::sort(here.begin(), here.end());
            files.insert(files.end(), here.begin(), here.end());
        } else if (fs::is_regular_file(path)) {
            files.push_back(path.string());
        } else {
            throw std::runtime_error("no such file or directory: " + p);
        }
    }
    return files;
}

CorpusReport
runCorpus(const std::vector<CompiledLitmus> &tests,
          const RunnerOptions &options,
          const std::vector<const MachineSpec *> &machines)
{
    CorpusReport report;
    report.seeds = options.seeds;
    report.baseSeed = options.baseSeed;
    for (const MachineSpec *m : machines) {
        MachineInfo mi;
        mi.name = m->name;
        mi.protocol = m->base.cached ? toString(m->base.protocol) : "none";
        mi.cacheLevels = m->base.cached ? m->base.cacheLevels : 0;
        report.machines.push_back(std::move(mi));
    }

    Campaign campaign({options.threads, options.baseSeed});

    // Flatten policy x machine into cells; each job is a (cell, seed).
    std::vector<CellPlan> cells;
    std::map<std::string, std::size_t> keyIndex;
    for (PolicyKind pk : options.policies) {
        for (const MachineSpec *m : machines) {
            std::string key = m->name + "/" + toString(pk);
            std::size_t k =
                keyIndex.emplace(key, keyIndex.size()).first->second;
            cells.push_back({pk, m, m->config(pk), std::move(key), k});
        }
    }
    const auto per_cell = static_cast<std::size_t>(options.seeds);
    const std::size_t per_test = cells.size() * per_cell;
    std::vector<Worker> workers(
        static_cast<std::size_t>(campaign.numThreads()) + 1);
    for (Worker &w : workers)
        w.perKey.resize(keyIndex.size());

    // Plan every test. An illegal machine/policy pair (a cache-needing
    // policy on a cache-less machine) skips its jobs: the cell reports
    // runs 0.
    const std::size_t num_tests = tests.size();
    std::vector<TestPlan> plans(num_tests);
    report.tests.resize(num_tests);
    for (std::size_t t = 0; t < num_tests; ++t) {
        const CompiledLitmus &test = tests[t];
        report.tests[t].name = test.name;
        report.tests[t].file = test.file;
        report.tests[t].clause = toString(test.clause);
        plans[t].clause = ClauseVars(test.clause.cond, test.addrOf);
        plans[t].runnable.assign(cells.size(), 1);
        for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            try {
                System::checkConfig(test.program, cells[ci].cfg);
            } catch (const std::invalid_argument &) {
                plans[t].runnable[ci] = 0;
            }
        }
    }

    // Campaign jobs and repro seeds index jobs with an int.
    constexpr std::size_t kMaxJobs = INT_MAX;
    if (num_tests > kMaxJobs ||
        (per_test != 0 && (kMaxJobs - num_tests) / per_test < num_tests)) {
        throw std::invalid_argument(
            "corpus fan of " + std::to_string(num_tests) + " tests x " +
            std::to_string(cells.size()) + " cells x " +
            std::to_string(per_cell) + " seeds exceeds " +
            std::to_string(kMaxJobs) + " jobs");
    }

    // One fan over the corpus: every test's analysis job first, so the
    // long jobs start first, then every test's simulation jobs, test by
    // test, each test's cell by cell. No simulation job reads the
    // analysis, so the two kinds run side by side. A simulation job
    // seeds from its index within its test's jobs, not from its index in
    // the fan: a test's report is the one a corpus of that test alone
    // gives.
    std::vector<JobOut> outs(num_tests * per_test);
    campaign.forEach(
        static_cast<int>(num_tests + outs.size()),
        [&](const CampaignJob &job) {
            const auto g = static_cast<std::size_t>(job.index);
            if (g < num_tests) {
                analyzeTest(tests[g], plans[g], options, report.tests[g]);
                return;
            }
            const std::size_t t = (g - num_tests) / per_test;
            const std::size_t local = (g - num_tests) % per_test;
            const std::size_t ci = local / per_cell;
            if (!plans[t].runnable[ci])
                return;
            outs[g - num_tests] = simulate(
                tests[t], plans[t], cells[ci],
                campaignJobSeed(options.baseSeed, static_cast<int>(local)),
                options, workers[static_cast<std::size_t>(job.worker)]);
        });

    // Judge in test order (byte-identical for any thread count).
    for (std::size_t t = 0; t < num_tests; ++t) {
        TestReport &tr = report.tests[t];
        judgeTest(tests[t], plans[t], cells, outs.data() + t * per_test,
                  options, tr);
        report.pass = report.pass && tr.pass;
    }
    for (const Worker &w : workers) {
        report.coverage.merge(w.cov);
        report.stats.merge(w.retired);
        for (const StatSet &total : w.perKey)
            report.stats.merge(total);
    }
    return report;
}

void
printReport(std::ostream &os, const CorpusReport &report, bool histograms,
            bool coverage)
{
    // Machine names pad to one column width for the whole report: the
    // default fan's 9, or one past the longest name on a wider fleet.
    int nameWidth = 9;
    for (const TestReport &tr : report.tests) {
        for (const CellReport &cell : tr.cells)
            nameWidth = std::max(nameWidth,
                                 static_cast<int>(cell.variant.size()) + 1);
    }
    for (const TestReport &tr : report.tests) {
        os << "== " << tr.name << "  (" << tr.file << ")\n";
        os << "   clause : " << tr.clause << "\n";
        os << "   program: "
           << (tr.drf0 ? "DRF0" : "racy")
           << (tr.drf0Bounded ? " (bounded)" : " (exact)") << "\n";
        if (tr.axiomChecked) {
            os << "   axiom  : "
               << (tr.axiomComplete ? "complete" : "truncated");
            for (const ModelAllowedReport &mar : tr.axiomAllowed)
                os << "  " << mar.model << "=" << mar.outcomes.size();
            os << "\n";
        }
        os << "   " << std::left << std::setw(14) << "policy"
           << std::setw(nameWidth) << "variant" << std::right << std::setw(6)
           << "runs" << std::setw(6) << "done" << std::setw(6) << "hits"
           << "  " << std::left << std::setw(15) << "sc:ok/not/unk"
           << "verdict\n";
        for (const CellReport &cell : tr.cells) {
            std::string sc = std::to_string(cell.scOk) + "/" +
                             std::to_string(cell.scViolations) + "/" +
                             std::to_string(cell.scUnknown);
            std::string verdict =
                !cell.pass ? "FAIL"
                : cell.enforced ? "pass"
                                : "info";
            if (!cell.note.empty())
                verdict += " (" + cell.note + ")";
            os << "   " << std::left << std::setw(14)
               << toString(cell.policy) << std::setw(nameWidth)
               << cell.variant
               << std::right << std::setw(6) << cell.runs << std::setw(6)
               << cell.finished << std::setw(6) << cell.hits << "  "
               << std::left << std::setw(15) << sc << verdict << "\n";
        }
        if (histograms) {
            for (const CellReport &cell : tr.cells) {
                if (cell.histogram.empty())
                    continue;
                os << "   outcomes [" << toString(cell.policy) << "/"
                   << cell.variant << "]:";
                for (const auto &[key, count] : cell.histogram)
                    os << "  " << count << ":> {" << key << "}";
                os << "\n";
            }
        }
        for (const CellGroup &cells :
             coverage ? cellsByPolicy(tr) : std::vector<CellGroup>()) {
            OutcomeSplit all = splitOutcomes(tr, cells);
            os << "   coverage [" << toString(cells.front()->policy)
               << " via " << cells.front()->axiomModel << "]: observed "
               << all.observed.size() << "/"
               << (all.observed.size() + all.unobserved.size());
            if (!all.unobserved.empty()) {
                os << "; unobserved:";
                for (const std::string &key : all.unobserved)
                    os << " {" << key << "}";
            }
            os << "\n";
            for (const CellReport *cell : cells) {
                OutcomeSplit here = splitOutcomes(tr, {cell});
                os << "     " << std::left << std::setw(nameWidth)
                   << cell->variant
                   << std::right << here.observed.size() << "/"
                   << (here.observed.size() + here.unobserved.size());
                // Flag only the gaps a sibling machine closed: an
                // outcome nobody produced is already reported on the
                // aggregate line above.
                std::vector<std::string> lag;
                for (const std::string &key : here.unobserved) {
                    if (std::find(all.observed.begin(), all.observed.end(),
                                  key) != all.observed.end())
                        lag.push_back(key);
                }
                if (!lag.empty()) {
                    os << "; missing here:";
                    for (const std::string &key : lag)
                        os << " {" << key << "}";
                }
                os << "\n";
            }
        }
        os << "   " << (tr.pass ? "PASS" : "FAIL") << "\n";
        for (const std::string &f : tr.failures)
            os << "     - " << f << "\n";
        os << "\n";
    }

    int passed = 0;
    for (const TestReport &tr : report.tests)
        passed += tr.pass ? 1 : 0;
    os << (report.pass ? "PASS" : "FAIL") << ": " << passed << "/"
       << report.tests.size() << " tests passed (" << report.seeds
       << " seeds per policy/variant, base seed " << report.baseSeed
       << ")\n";
    for (const TestReport &tr : report.tests) {
        if (!tr.pass)
            os << "  failed: " << tr.name << " (" << tr.file << ")\n";
    }
}

void
writeJsonReport(std::ostream &os, const CorpusReport &report)
{
    os << "{\n";
    os << "  \"seeds\": " << report.seeds << ",\n";
    os << "  \"baseSeed\": " << report.baseSeed << ",\n";
    os << "  \"pass\": " << (report.pass ? "true" : "false") << ",\n";
    os << "  \"tests\": [\n";
    for (std::size_t t = 0; t < report.tests.size(); ++t) {
        const TestReport &tr = report.tests[t];
        os << "    {\n";
        os << "      \"name\": \"" << jsonEscape(tr.name) << "\",\n";
        os << "      \"file\": \"" << jsonEscape(tr.file) << "\",\n";
        os << "      \"clause\": \"" << jsonEscape(tr.clause) << "\",\n";
        os << "      \"drf0\": " << (tr.drf0 ? "true" : "false") << ",\n";
        os << "      \"drf0Bounded\": "
           << (tr.drf0Bounded ? "true" : "false") << ",\n";
        os << "      \"axiom\": {\"checked\": "
           << (tr.axiomChecked ? "true" : "false")
           << ", \"complete\": " << (tr.axiomComplete ? "true" : "false")
           << ", \"allowed\": {";
        for (std::size_t i = 0; i < tr.axiomAllowed.size(); ++i) {
            const ModelAllowedReport &mar = tr.axiomAllowed[i];
            os << (i ? ", " : "") << "\"" << jsonEscape(mar.model)
               << "\": ";
            writeJsonList(os, mar.outcomes);
        }
        os << "}, \"coverage\": [";
        const std::vector<CellGroup> groups = cellsByPolicy(tr);
        for (std::size_t i = 0; i < groups.size(); ++i) {
            const CellGroup &cells = groups[i];
            os << (i ? ", " : "") << "{\"policy\": \""
               << toString(cells.front()->policy) << "\", \"model\": \""
               << jsonEscape(cells.front()->axiomModel) << "\", ";
            writeJsonSplit(os, splitOutcomes(tr, cells));
            os << ", \"machines\": [";
            for (std::size_t m = 0; m < cells.size(); ++m) {
                os << (m ? ", " : "") << "{\"variant\": \""
                   << jsonEscape(cells[m]->variant) << "\", ";
                writeJsonSplit(os, splitOutcomes(tr, {cells[m]}));
                os << "}";
            }
            os << "]}";
        }
        os << "]},\n";
        os << "      \"pass\": " << (tr.pass ? "true" : "false") << ",\n";
        os << "      \"failures\": ";
        writeJsonList(os, tr.failures);
        os << ",\n";
        os << "      \"cells\": [\n";
        for (std::size_t c = 0; c < tr.cells.size(); ++c) {
            const CellReport &cell = tr.cells[c];
            os << "        {\"policy\": \"" << toString(cell.policy)
               << "\", \"variant\": \"" << jsonEscape(cell.variant)
               << "\", \"runs\": " << cell.runs
               << ", \"finished\": " << cell.finished
               << ", \"hits\": " << cell.hits
               << ", \"scOk\": " << cell.scOk
               << ", \"scViolations\": " << cell.scViolations
               << ", \"scUnknown\": " << cell.scUnknown
               << ", \"enforced\": " << (cell.enforced ? "true" : "false")
               << ", \"pass\": " << (cell.pass ? "true" : "false")
               << ", \"axiomModel\": \"" << jsonEscape(cell.axiomModel)
               << "\", \"axiomForbidden\": ";
            writeJsonList(os, cell.axiomForbidden);
            os << ", \"histogram\": {";
            bool first = true;
            for (const auto &[key, count] : cell.histogram) {
                os << (first ? "" : ", ") << "\"" << jsonEscape(key)
                   << "\": " << count;
                first = false;
            }
            os << "}}" << (c + 1 < tr.cells.size() ? "," : "") << "\n";
        }
        os << "      ]\n";
        os << "    }" << (t + 1 < report.tests.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"stats\": ";
    report.stats.dumpJson(os, "", 2);
    os << "\n}\n";
}

StandingCoverage
standingCoverage(const CorpusReport &report)
{
    StandingCoverage st;
    st.runs = 1;
    st.meta.insert({"seeds", std::to_string(report.seeds)});
    st.meta.insert({"baseSeed", std::to_string(report.baseSeed)});
    for (const MachineInfo &mi : report.machines)
        st.addMachine(mi.name, mi.protocol, mi.cacheLevels);
    st.addCoverage(report.coverage);
    // Outcome rows, measured against the axiom stage's allowed sets:
    // each cell's histogram counts, plus every key its bounding model
    // allows but no run produced, at 0. Cells the policy cannot run on
    // (runs 0) get no rows: those are impossibilities, not gaps.
    for (const TestReport &tr : report.tests) {
        if (!tr.axiomChecked)
            continue;
        for (const CellReport &cell : tr.cells) {
            if (cell.runs == 0)
                continue;
            auto row = [&](const std::string &key) -> std::uint64_t & {
                return st.outcomes[{tr.name, toString(cell.policy),
                                    cell.variant, key}];
            };
            for (const auto &[key, count] : cell.histogram)
                row(key) += static_cast<std::uint64_t>(count);
            for (const std::string &key :
                 splitOutcomes(tr, {&cell}).unobserved)
                row(key);
        }
    }
    return st;
}

} // namespace litmus_dsl
} // namespace wo
