/**
 * @file
 * Tracing-overhead micro-harness: measures simulator throughput with
 * tracing disabled (no sink attached — the shipping default) against
 * tracing fully enabled (a TraceSink with the all-components mask)
 * and against coverage recording (a CoverageMap installed, no sink),
 * over the same deterministic lock-contention workloads.
 *
 *   $ trace_overhead [--quick] [--json=FILE] [--gate=PCT]
 *
 * The disabled-path number is the one that matters: every component
 * guards its instrumentation behind a single `if (sink_)` test, so an
 * untraced run must stay within noise of a build that never had the
 * observability layer. The enabled-path number quantifies what a traced
 * debugging run costs (event construction + buffer append + histogram
 * updates). The coverage number gates the campaign-coverage path
 * (one dense-array increment per recording site): --gate=PCT exits
 * nonzero when coverage overhead exceeds PCT (the CI gate is 3).
 *
 * One pass runs lockCounter(Tas, 4, 4) + lockCounter(Tttas, 4, 4) on
 * net-cold under Def2Drf0, seeds 1..runs, accumulating executed-event
 * counts. Off and coverage passes run as interleaved back-to-back
 * pairs; the reported coverage cost is the median pairwise overhead,
 * which cancels external load that varies on the timescale of a whole
 * pass. The default takes 15 pairs of 600-run passes; --quick (the CI
 * gate) takes 60 pairs of 60-run passes, less work in total and many
 * more pairs for the median, which a shared host's noise needs. The
 * traced pass is informational, not gated: its cost is the best of 3
 * passes of a fixed 240 runs under either preset, so the number CI
 * archives does not move with the gate's pass length. The table rows
 * show each mode's fastest pass. Results print as a table, and
 * --json=FILE dumps them as JSON with an identical schema.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/coverage.hh"
#include "obs/trace_sink.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

/** Runs per traced pass, whatever the preset. */
constexpr int kTracedRuns = 240;

struct Sample
{
    std::uint64_t events = 0;
    double seconds = 0.0;

    double
    eventsPerSec() const
    {
        return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

/**
 * One full measurement pass: @p runs iterations of both lock workloads,
 * recording into @p sink and/or @p cov when non-null.
 */
Sample
measure(int runs, TraceSink *sink, CoverageMap *cov = nullptr)
{
    MultiProgram tas = lockCounter(LockKind::Tas, 4, 4);
    MultiProgram tttas = lockCounter(LockKind::Tttas, 4, 4);

    // Warm caches / allocator before timing.
    for (int i = 0; i < 5; ++i) {
        SystemConfig cfg =
            machineOrThrow("net-cold").config(PolicyKind::Def2Drf0, 1 + i);
        System sys(tttas, cfg);
        sys.run();
    }

    Sample s;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < runs; ++i) {
        for (const MultiProgram *mp : {&tas, &tttas}) {
            SystemConfig cfg = machineOrThrow("net-cold").config(
                PolicyKind::Def2Drf0, 1 + i);
            cfg.traceSink = sink;
            cfg.coverage = cov;
            System sys(*mp, cfg);
            sys.run();
            s.events += sys.eventQueue().executed();
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    int runs = 600;
    int reps = 15;
    std::string json_file;
    double gate_pct = -1.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            runs = 60;
            reps = 60;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_file = arg.substr(7);
        } else if (arg.rfind("--gate=", 0) == 0) {
            // Parsed whole: "3x" or "abc" would otherwise gate at 3 or 0.
            char *end = nullptr;
            gate_pct = std::strtod(arg.c_str() + 7, &end);
            if (arg.size() == 7 || *end != '\0' || !(gate_pct >= 0)) {
                std::cerr << "trace_overhead: bad --gate value '"
                          << arg.substr(7) << "'\n";
                return 2;
            }
        } else {
            std::cerr << "usage: trace_overhead [--quick] [--json=FILE] "
                         "[--gate=PCT]\n";
            return 2;
        }
    }

    // Interleave off/coverage passes and gate on the MEDIAN pairwise
    // overhead: a single pass is short enough that scheduler noise on
    // a loaded host swings any one ratio by tens of percent in either
    // direction (an off-vs-off control shows the same swings), but the
    // noise is symmetric per back-to-back pair, so the median over
    // many pairs centers on the true cost — outliers in both
    // directions are trimmed, and a real regression (e.g. a string
    // hash on the stall path) shifts every pair. The coverage map is
    // campaign-style: one map accumulating across every run (the
    // wo-litmus --coverage-report shape).
    Sample off, cov;
    CoverageMap cov_map;
    std::vector<double> pair_pct;
    for (int r = 0; r < reps; ++r) {
        Sample o = measure(runs, nullptr);
        Sample c = measure(runs, nullptr, &cov_map);
        if (o.eventsPerSec() > off.eventsPerSec())
            off = o;
        if (c.eventsPerSec() > cov.eventsPerSec())
            cov = c;
        if (c.eventsPerSec() > 0) {
            pair_pct.push_back(
                (o.eventsPerSec() / c.eventsPerSec() - 1.0) * 100.0);
        }
    }
    std::sort(pair_pct.begin(), pair_pct.end());
    double coverage_pct =
        pair_pct.empty() ? 0.0 : pair_pct[pair_pct.size() / 2];

    // The traced pass uses a fresh buffer per run so memory stays
    // bounded and each run pays the realistic append cost from empty.
    MultiProgram tas = lockCounter(LockKind::Tas, 4, 4);
    MultiProgram tttas = lockCounter(LockKind::Tttas, 4, 4);
    Sample on;
    for (int r = 0; r < 3; ++r) {
        Sample pass;
        for (int i = 0; i < 5; ++i) {
            SystemConfig cfg = machineOrThrow("net-cold").config(
                PolicyKind::Def2Drf0, 1 + i);
            System sys(tttas, cfg);
            sys.run();
        }
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kTracedRuns; ++i) {
            for (const MultiProgram *mp : {&tas, &tttas}) {
                TraceSink buf;
                SystemConfig cfg = machineOrThrow("net-cold").config(
                    PolicyKind::Def2Drf0, 1 + i);
                cfg.traceSink = &buf;
                System sys(*mp, cfg);
                sys.run();
                pass.events += sys.eventQueue().executed();
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        pass.seconds = std::chrono::duration<double>(t1 - t0).count();
        if (pass.eventsPerSec() > on.eventsPerSec())
            on = pass;
    }

    double overhead_pct =
        on.eventsPerSec() > 0
            ? (off.eventsPerSec() / on.eventsPerSec() - 1.0) * 100.0
            : 0.0;

    std::printf("trace_overhead (%d runs x 2 workloads, %d traced, "
                "net-cold, def2drf0)\n",
                runs, kTracedRuns);
    std::printf("  %-14s %12s %10s %16s\n", "mode", "events", "sec",
                "events/sec");
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "tracing off",
                (unsigned long long)off.events, off.seconds,
                off.eventsPerSec());
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "coverage on",
                (unsigned long long)cov.events, cov.seconds,
                cov.eventsPerSec());
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "tracing on",
                (unsigned long long)on.events, on.seconds,
                on.eventsPerSec());
    std::printf("  enabled-path cost: %.1f%%\n", overhead_pct);
    std::printf("  coverage cost:     %.1f%%\n", coverage_pct);

    if (!json_file.empty()) {
        std::ofstream out(json_file);
        if (!out) {
            std::cerr << "trace_overhead: cannot write " << json_file
                      << "\n";
            return 2;
        }
        out << "{\n"
            << "  \"bench\": \"trace_overhead\",\n"
            << "  \"runs\": " << runs << ",\n"
            << "  \"traced_runs\": " << kTracedRuns << ",\n"
            << "  \"off\": {\"events\": " << off.events
            << ", \"events_per_sec\": "
            << static_cast<std::uint64_t>(off.eventsPerSec()) << "},\n"
            << "  \"coverage\": {\"events\": " << cov.events
            << ", \"events_per_sec\": "
            << static_cast<std::uint64_t>(cov.eventsPerSec()) << "},\n"
            << "  \"on\": {\"events\": " << on.events
            << ", \"events_per_sec\": "
            << static_cast<std::uint64_t>(on.eventsPerSec()) << "},\n"
            << "  \"enabled_overhead_pct\": "
            << static_cast<std::int64_t>(overhead_pct * 10) / 10.0 << ",\n"
            << "  \"coverage_overhead_pct\": "
            << static_cast<std::int64_t>(coverage_pct * 10) / 10.0 << "\n"
            << "}\n";
        std::printf("json written to %s\n", json_file.c_str());
    }

    if (gate_pct >= 0 && coverage_pct > gate_pct) {
        std::fprintf(stderr,
                     "trace_overhead: coverage overhead %.1f%% exceeds "
                     "gate %.1f%%\n",
                     coverage_pct, gate_pct);
        return 1;
    }
    return 0;
}
