/**
 * @file
 * System lifecycle benchmark: what a campaign job costs when the
 * simulated machine is reset and reused instead of rebuilt.
 *
 *   $ system_pool [--quick] [--json=FILE] [--corpus=DIR] [--seed=S]
 *
 * Two sections, each printed as a table and recorded in a StatSet
 * dumped as JSON (default file: BENCH_system_pool.json):
 *
 *  1. the litmus-corpus job fan — every (test, machine, policy, seed)
 *     simulation job run twice, once constructing a fresh System per
 *     job and once acquiring from a SystemPool — the tentpole jobs/sec
 *     comparison (key corpus.speedup_milli);
 *  2. construction vs reset microcost per machine/policy cell, isolating
 *     what the pool saves before any simulation happens.
 *
 * End-to-end runCorpus time, which always pools, is bench/e2e's
 * corpus-default workload.
 *
 * Outcomes are verified before timing: every job's verdict, finish tick,
 * final state and stats dump must be identical between the fresh and
 * pooled paths, so the timings compare two ways of computing the same
 * bytes.
 *
 * All timings are best-of-N std::chrono::steady_clock measurements.
 * --quick shrinks seeds and repetitions for CI smoke runs; the measured
 * shape (and the JSON schema) is identical.
 */

#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "consistency/policy.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "sim/stats.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/campaign.hh"

namespace {

using namespace wo;

benchutil::BenchOptions g_opts;

/** Best-of-@p reps wall time of @p fn, in nanoseconds. */
template <class F>
std::uint64_t
bestNs(int reps, F &&fn)
{
    std::uint64_t best = ~std::uint64_t(0);
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t1 - t0)
                      .count();
        best = std::min(best, static_cast<std::uint64_t>(ns));
    }
    return best;
}

std::string
fmtNs(std::uint64_t ns)
{
    std::ostringstream oss;
    if (ns >= 10000000)
        oss << ns / 1000000 << " ms";
    else if (ns >= 10000)
        oss << ns / 1000 << " us";
    else
        oss << ns << " ns";
    return oss.str();
}

std::string
fmtSpeedup(std::uint64_t milli)
{
    std::ostringstream oss;
    oss << milli / 1000 << "." << (milli % 1000) / 100 << "x";
    return oss.str();
}

/** One simulation job of the fan. */
struct Job
{
    const litmus_dsl::CompiledLitmus *test;
    const MachineSpec *machine;
    PolicyKind policy;
    std::uint64_t netSeed;
};

/** The deterministic job list: tests x machines x policies x seeds,
 * skipping cells whose policy is illegal on the machine. */
std::vector<Job>
jobFan(const std::vector<litmus_dsl::CompiledLitmus> &tests,
       const std::vector<const MachineSpec *> &machines, int seeds)
{
    const std::vector<PolicyKind> policies = {
        PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
        PolicyKind::Relaxed};
    std::vector<Job> jobs;
    for (const auto &test : tests) {
        for (const MachineSpec *m : machines) {
            for (PolicyKind pk : policies) {
                if (!m->base.cached && policyOf(pk).requiresCache)
                    continue;
                for (int s = 0; s < seeds; ++s) {
                    jobs.push_back(
                        {&test, m, pk, campaignJobSeed(g_opts.baseSeed,
                                                       s)});
                }
            }
        }
    }
    return jobs;
}

/** Everything observable about one finished job, as one string. */
std::string
outcomeOf(System &sys, bool finished)
{
    std::ostringstream oss;
    oss << finished;
    if (finished)
        oss << " " << sys.finishTick() << " " << sys.result().toString();
    sys.stats().dump(oss);
    return oss.str();
}

void
benchJobFan(StatSet &stats,
            const std::vector<litmus_dsl::CompiledLitmus> &tests)
{
    const int seeds = g_opts.quick ? 2 : 5;
    const int reps = g_opts.quick ? 2 : 3;
    std::vector<const MachineSpec *> machines = {
        &machineOrThrow("bus"), &machineOrThrow("net"),
        &machineOrThrow("net-u")};
    std::vector<Job> jobs = jobFan(tests, machines, seeds);

    benchutil::banner(
        "Litmus-corpus job fan: fresh construction vs pooled reset (" +
        std::to_string(jobs.size()) + " jobs, " + std::to_string(seeds) +
        " seeds/cell)");

    auto runFresh = [&](std::vector<std::string> *outcomes) {
        for (const Job &j : jobs) {
            SystemConfig cfg = j.machine->config(j.policy, j.netSeed);
            System sys(j.test->program, cfg);
            bool finished = sys.run();
            if (outcomes)
                outcomes->push_back(outcomeOf(sys, finished));
        }
    };
    auto runPooled = [&](SystemPool &pool,
                         std::vector<std::string> *outcomes) {
        for (const Job &j : jobs) {
            SystemConfig cfg = j.machine->config(j.policy, j.netSeed);
            System &sys = pool.acquire(
                j.machine->name + "/" + toString(j.policy),
                j.test->program, cfg);
            bool finished = sys.run();
            if (outcomes)
                outcomes->push_back(outcomeOf(sys, finished));
        }
    };

    // Correctness gate before timing: both paths must produce the same
    // verdicts, final states and stats for every single job.
    std::vector<std::string> fresh_out, pooled_out;
    runFresh(&fresh_out);
    SystemPool pool;
    runPooled(pool, &pooled_out);
    if (fresh_out != pooled_out) {
        for (std::size_t i = 0; i < fresh_out.size(); ++i) {
            if (fresh_out[i] != pooled_out[i]) {
                std::cerr << "BUG: job " << i
                          << " diverges between fresh and pooled\n"
                          << "fresh : " << fresh_out[i] << "\n"
                          << "pooled: " << pooled_out[i] << "\n";
                break;
            }
        }
        std::exit(1);
    }

    std::uint64_t fresh_ns = bestNs(reps, [&] { runFresh(nullptr); });
    // The pool is warm from the verification pass, as it is after the
    // first few jobs of any campaign; every timed job is a reset.
    std::uint64_t pooled_ns =
        bestNs(reps, [&] { runPooled(pool, nullptr); });

    std::uint64_t n = jobs.size();
    std::uint64_t fresh_jps =
        fresh_ns ? n * 1000000000ull / fresh_ns : 0;
    std::uint64_t pooled_jps =
        pooled_ns ? n * 1000000000ull / pooled_ns : 0;
    std::uint64_t speedup_milli =
        pooled_ns ? fresh_ns * 1000 / pooled_ns : 0;

    stats.set("corpus.jobs", n);
    stats.set("corpus.fresh_ns", fresh_ns);
    stats.set("corpus.pooled_ns", pooled_ns);
    stats.set("corpus.fresh_jobs_per_sec", fresh_jps);
    stats.set("corpus.pooled_jobs_per_sec", pooled_jps);
    stats.set("corpus.speedup_milli", speedup_milli);
    stats.set("corpus.pool_reuses", pool.reuses());
    stats.set("corpus.pool_builds", pool.builds());

    benchutil::Table table(
        {"path", "wall", "jobs/sec", "speedup"});
    table.addRow({"fresh System per job", fmtNs(fresh_ns),
                  std::to_string(fresh_jps), "1.0x"});
    table.addRow({"pooled reset per job", fmtNs(pooled_ns),
                  std::to_string(pooled_jps),
                  fmtSpeedup(speedup_milli)});
    table.print();
    std::cout << "\n(every job's verdict, finish tick, final state and "
                 "stats dump verified\nidentical between the two paths "
                 "before timing; pool: "
              << pool.builds() << " builds, " << pool.reuses()
              << " reuses)\n";
}

void
benchResetMicro(StatSet &stats,
                const std::vector<litmus_dsl::CompiledLitmus> &tests)
{
    benchutil::banner("Per-instance cost: construction vs reset "
                      "(no simulation)");
    const int iters = g_opts.quick ? 200 : 1000;
    const int reps = g_opts.quick ? 2 : 3;
    // A representative 2-processor program: the corpus's first test.
    const MultiProgram &prog = tests.front().program;

    struct Cell
    {
        const char *machine;
        PolicyKind policy;
    };
    benchutil::Table table(
        {"machine/policy", "construct", "reset", "speedup"});
    for (const Cell &c : {Cell{"bus", PolicyKind::Def2Drf0},
                          Cell{"net", PolicyKind::Def2Drf0},
                          Cell{"net-u", PolicyKind::Sc}}) {
        SystemConfig cfg =
            machineOrThrow(c.machine).config(c.policy, 1);
        std::uint64_t ctor_ns = bestNs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                System sys(prog, cfg);
                if (sys.eventQueue().now() != 0)
                    std::exit(1);
            }
        });
        System sys(prog, cfg);
        std::uint64_t reset_ns = bestNs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                sys.reset(cfg);
                sys.loadProgram(prog);
            }
        });
        ctor_ns /= static_cast<std::uint64_t>(iters);
        reset_ns /= static_cast<std::uint64_t>(iters);
        std::uint64_t speedup_milli =
            reset_ns ? ctor_ns * 1000 / reset_ns : 0;
        std::string key = std::string("reset.") + c.machine + "." +
                          toString(c.policy);
        stats.set(key + ".construct_ns", ctor_ns);
        stats.set(key + ".reset_ns", reset_ns);
        stats.set(key + ".speedup_milli", speedup_milli);
        table.addRow({std::string(c.machine) + "/" + toString(c.policy),
                      fmtNs(ctor_ns), fmtNs(reset_ns),
                      fmtSpeedup(speedup_milli)});
    }
    table.print();
    std::cout << "\n(per instance, averaged over " << iters
              << " iterations; reset = System::reset + loadProgram)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    g_opts = benchutil::consumeBenchFlags(argc, argv);
    std::string corpus_dir = "tests/litmus";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--corpus=", 0) == 0) {
            corpus_dir = arg.substr(9);
        } else {
            std::cerr << "usage: system_pool [--quick] [--json=FILE] "
                         "[--corpus=DIR] [--seed=S]\n";
            return 2;
        }
    }
    if (g_opts.jsonFile.empty())
        g_opts.jsonFile = "BENCH_system_pool.json";
    if (!std::filesystem::is_directory(corpus_dir)) {
        std::cerr << "system_pool: no corpus directory " << corpus_dir
                  << "\n";
        return 2;
    }

    std::vector<litmus_dsl::CompiledLitmus> tests;
    for (const std::string &f :
         litmus_dsl::findLitmusFiles({corpus_dir}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));

    StatSet stats;
    stats.set("quick", g_opts.quick ? 1 : 0);
    stats.set("corpus.tests", tests.size());
    benchJobFan(stats, tests);
    benchResetMicro(stats, tests);

    benchutil::dumpJsonFile(stats, g_opts.jsonFile);
    return 0;
}
