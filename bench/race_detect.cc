/**
 * @file
 * Race-detection benchmark: the streaming vector-clock checker against
 * the historical dense-bitset happens-before closure.
 *
 *   $ race_detect [--quick] [--json=FILE]
 *
 * Two sections, each printed as a table and recorded in a StatSet that
 * is dumped as JSON (default file: BENCH_race_detect.json):
 *
 *  1. per-trace checking on synthetic traces of 100..10k accesses,
 *     race-free and racy, checkTraceBitset() vs checkTrace() — the
 *     tentpole O(n^2/64) -> O(n*P) comparison;
 *  2. the sampled program check, online early-exit vs an offline
 *     reference that runs every schedule to completion and race-checks
 *     the full trace with the bitset oracle.
 *
 * End-to-end corpus time, DRF0 stage included, is bench/e2e's
 * corpus-default workload.
 *
 * All timings are best-of-N std::chrono::steady_clock measurements.
 * --quick shrinks repetitions for CI smoke runs; the measured shape (and
 * the JSON schema) is identical.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "core/race_detector.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

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

/** Same synthetic shape as fig2_drf0_check: 4th access is a sync RMW on
 * one global lock; data accesses go to shared locations (racy) or a
 * per-processor private one (race-free). */
ExecutionTrace
syntheticTrace(int procs, int per_proc, bool racy, std::uint64_t seed)
{
    Rng rng(seed);
    ExecutionTrace t;
    t.reserve(procs * per_proc);
    Tick now = 0;
    for (int p = 0; p < procs; ++p) {
        for (int i = 0; i < per_proc; ++i) {
            Access a;
            a.proc = p;
            a.poIndex = i;
            bool sync = (i % 4 == 3);
            if (sync) {
                a.kind = AccessKind::SyncRmw;
                a.addr = 1000;
            } else {
                a.kind = rng.chance(1, 2) ? AccessKind::DataWrite
                                          : AccessKind::DataRead;
                a.addr = racy ? static_cast<Addr>(rng.below(8))
                              : static_cast<Addr>(100 + p);
            }
            a.commitTick = now++;
            a.gpTick = a.commitTick;
            t.add(a);
        }
    }
    return t;
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

void
benchTraceChecks(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Per-trace race check: bitset closure vs vector clocks");
    const int procs = 4;
    const int reps = quick ? 3 : 7;
    benchutil::Table table(
        {"accesses", "variant", "bitset", "vclock", "speedup"});
    for (int n : {100, 500, 1000, 2000, 5000, 10000}) {
        for (bool racy : {false, true}) {
            ExecutionTrace t =
                syntheticTrace(procs, n / procs, racy, 42);
            // Prime caches and sanity-check agreement outside timing.
            Drf0TraceReport vc = checkTrace(t);
            Drf0TraceReport bs = checkTraceBitset(t);
            if (vc.raceFree != bs.raceFree || vc.races != bs.races) {
                std::cerr << "BUG: checkers disagree at n=" << n << "\n";
                std::exit(1);
            }
            std::uint64_t bitset_ns = bestNs(reps, [&] {
                Drf0TraceReport r = checkTraceBitset(t);
                if (r.raceFree != bs.raceFree)
                    std::exit(1);
            });
            std::uint64_t vc_ns = bestNs(reps, [&] {
                Drf0TraceReport r = checkTrace(t);
                if (r.raceFree != bs.raceFree)
                    std::exit(1);
            });
            std::uint64_t speedup_milli =
                vc_ns ? bitset_ns * 1000 / vc_ns : 0;
            std::string key = std::string("trace.") +
                              (racy ? "racy" : "racefree") + ".n" +
                              std::to_string(n);
            stats.set(key + ".bitset_ns", bitset_ns);
            stats.set(key + ".vclock_ns", vc_ns);
            stats.set(key + ".speedup_milli", speedup_milli);
            table.addRow({std::to_string(n),
                          racy ? "racy" : "race-free", fmtNs(bitset_ns),
                          fmtNs(vc_ns), fmtSpeedup(speedup_milli)});
        }
    }
    table.print();
    std::cout << "\n(speedup = bitset / vclock wall time, best of "
              << reps << " runs; racy traces include race "
              << "enumeration in both checkers)\n";
}

/** The pre-vector-clock sampled check: same schedule stream, every
 * execution run to completion and bitset-checked offline. */
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

void
benchSampledCheck(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Sampled program check: online early-exit vs offline");
    const int schedules = quick ? 60 : 200;
    const int reps = quick ? 2 : 5;
    RandomWorkloadConfig cfg;
    cfg.numProcs = 3;
    cfg.numLocks = 2;
    cfg.locsPerLock = 3;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 3;
    cfg.opsPerSection = 3;
    cfg.privateOpsBetween = 2;
    cfg.spinAcquire = true;
    cfg.seed = 11;

    benchutil::Table table(
        {"program", "schedules", "offline", "online", "speedup"});
    struct Case
    {
        const char *label;
        MultiProgram program;
    };
    std::vector<Case> cases;
    cases.push_back({"drf0-spinlock", randomDrf0Program(cfg)});
    cases.push_back({"racy-unguarded", randomRacyProgram(cfg, 2)});
    for (Case &c : cases) {
        Drf0ProgramReport on = checkProgramSampled(c.program, schedules, 9);
        Drf0ProgramReport off = offlineSampled(c.program, schedules, 9);
        if (on.obeysDrf0 != off.obeysDrf0 ||
            on.executions != off.executions) {
            std::cerr << "BUG: sampled checkers disagree on " << c.label
                      << "\n";
            std::exit(1);
        }
        std::uint64_t off_ns = bestNs(reps, [&] {
            Drf0ProgramReport r = offlineSampled(c.program, schedules, 9);
            if (r.obeysDrf0 != off.obeysDrf0)
                std::exit(1);
        });
        std::uint64_t on_ns = bestNs(reps, [&] {
            Drf0ProgramReport r =
                checkProgramSampled(c.program, schedules, 9);
            if (r.obeysDrf0 != off.obeysDrf0)
                std::exit(1);
        });
        std::uint64_t speedup_milli = on_ns ? off_ns * 1000 / on_ns : 0;
        std::string key = std::string("sampled.") + c.label;
        stats.set(key + ".offline_ns", off_ns);
        stats.set(key + ".online_ns", on_ns);
        stats.set(key + ".speedup_milli", speedup_milli);
        stats.set(key + ".executions", on.executions);
        table.addRow({c.label, std::to_string(schedules), fmtNs(off_ns),
                      fmtNs(on_ns), fmtSpeedup(speedup_milli)});
    }
    table.print();
    std::cout << "\n(verdicts, execution counts and witnesses are "
                 "checked identical before timing)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_file = "BENCH_race_detect.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_file = arg.substr(7);
        } else {
            std::cerr << "usage: race_detect [--quick] [--json=FILE]\n";
            return 2;
        }
    }

    StatSet stats;
    stats.set("quick", quick ? 1 : 0);
    benchTraceChecks(stats, quick);
    benchSampledCheck(stats, quick);

    std::ofstream out(json_file);
    if (!out) {
        std::cerr << "race_detect: cannot write " << json_file << "\n";
        return 2;
    }
    stats.dumpJson(out);
    out << "\n";
    std::cout << "\njson written to " << json_file << "\n";
    return 0;
}
