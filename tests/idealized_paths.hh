/**
 * @file
 * Test-only oracles over the idealized machine that the library does not
 * need: unmemoized path enumeration (every interleaving, one by one) and
 * seeded random-schedule walks. checkProgram()'s exact state search is
 * checked against both.
 */

#ifndef WO_TESTS_IDEALIZED_PATHS_HH
#define WO_TESTS_IDEALIZED_PATHS_HH

#include <cstdint>
#include <functional>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "sim/rng.hh"

namespace wo {

/** Caps on path enumeration. */
struct PathLimits
{
    /** Max instructions along one interleaving. */
    int maxStepsPerExecution = 10000;

    /** Max interleavings visited (complete or cut off). */
    std::uint64_t maxExecutions = 2000000;
};

/**
 * Visit every idealized execution of @p program (every interleaving).
 *
 * The callback receives the trace and outcome; @c complete is false when
 * the interleaving was cut off by the step cap. Return false from the
 * callback to stop early.
 *
 * @return true if the enumeration covered everything (no cap hit and not
 *         stopped early).
 */
inline bool
forEachExecution(
    const MultiProgram &program, const PathLimits &limits,
    const std::function<bool(const ExecutionTrace &, const RunResult &,
                             bool complete)> &visit)
{
    IdealizedMachine m(program);
    std::uint64_t execs = 0;
    bool capped = false;
    bool stopped = false;

    auto leaf = [&](bool complete) {
        ++execs;
        if (!visit(m.trace(), m.result(), complete))
            stopped = true;
        if (execs >= limits.maxExecutions) {
            capped = true;
            stopped = true;
        }
    };
    std::function<void(int)> dfs = [&](int depth) {
        if (m.allHalted()) {
            leaf(true);
            return;
        }
        if (depth >= limits.maxStepsPerExecution) {
            capped = true;
            leaf(false);
            return;
        }
        for (ProcId p = 0; p < program.numProcs() && !stopped; ++p) {
            if (m.halted(p))
                continue;
            m.step(p);
            dfs(depth + 1);
            m.unstep();
        }
    };
    dfs(0);
    return !capped && !stopped;
}

/**
 * Run @p schedules seeded random interleavings of @p program (each to
 * completion or @p max_steps instructions) and race-check each trace
 * with the bitset oracle. Returns the first racy trace's report, with
 * the trace in @p witness; a race-free report when no walk raced.
 */
inline Drf0TraceReport
randomWalkRace(const MultiProgram &program, std::uint64_t seed,
               int schedules, ExecutionTrace &witness,
               int max_steps = 10000)
{
    Rng rng(seed);
    const int n = program.numProcs();
    for (int s = 0; s < schedules; ++s) {
        IdealizedMachine m(program);
        for (int steps = 0; !m.allHalted() && steps < max_steps; ++steps) {
            ProcId p = static_cast<ProcId>(rng.below(n));
            while (m.halted(p))
                p = (p + 1) % n;
            m.step(p);
        }
        Drf0TraceReport report = checkTraceBitset(m.trace());
        if (!report.raceFree) {
            witness = m.trace();
            return report;
        }
    }
    return {};
}

} // namespace wo

#endif // WO_TESTS_IDEALIZED_PATHS_HH
