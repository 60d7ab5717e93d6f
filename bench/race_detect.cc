/**
 * @file
 * Race-detection benchmark: the streaming vector-clock checker against
 * the historical dense-bitset happens-before closure.
 *
 *   $ race_detect [--quick] [--json=FILE]
 *
 * Per-trace checking on synthetic traces of 100..10k accesses, race-free
 * and racy, checkTraceBitset() vs checkTrace() — the O(n^2/64) -> O(n*P)
 * comparison — printed as a table and recorded in a StatSet that is
 * dumped as JSON to FILE when --json=FILE is given.
 *
 * The program-level DRF0 check (checkProgram's state search) is timed
 * per corpus test in EXPERIMENTS.md; end-to-end corpus time, DRF0 stage
 * included, is bench/e2e's corpus-default workload.
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
#include "sim/rng.hh"
#include "sim/stats.hh"

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

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_file;
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
    if (json_file.empty())
        return 0;

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
