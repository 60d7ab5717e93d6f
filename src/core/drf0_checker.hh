/**
 * @file
 * DRF0 (Data-Race-Free-0) checking — Definition 3 of the paper.
 *
 * A program obeys DRF0 iff (1) all synchronization operations are
 * hardware-recognizable and access exactly one location (guaranteed by our
 * ISA), and (2) for ANY execution on the idealized architecture (atomic,
 * program-order), all conflicting accesses are ordered by the
 * happens-before relation of that execution.
 *
 * Two entry points are provided:
 *  - checkTrace(): classify one concrete execution (used for the Figure 2
 *    example and counter-example, and for dynamic race reporting);
 *  - checkProgram(): exhaustively enumerate idealized executions of a
 *    program and classify each (the literal Definition 3 quantifier).
 *
 * Race detection runs on one vector-clock engine
 * (core/race_detector.hh): checkTrace() is the StreamingDrf0Checker
 * (core/stream_checker.hh) fed the whole trace, O(n * P) per trace
 * instead of the O(n^2/64) dense happens-before closure; the sampled
 * program check attaches a detector online, aborting an execution at its
 * first race. The closure (core/happens_before.hh) survives as
 * checkTraceBitset(), the differential oracle.
 */

#ifndef WO_CORE_DRF0_CHECKER_HH
#define WO_CORE_DRF0_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/happens_before.hh"
#include "core/race_detector.hh"
#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

/** Outcome of checking one execution trace. */
struct Drf0TraceReport
{
    bool raceFree = true;
    std::vector<Race> races;

    /** Render races against @p trace for human consumption. */
    std::string toString(const ExecutionTrace &trace) const;
};

/** Outcome of exhaustively checking a program. */
struct Drf0ProgramReport
{
    /** True iff every explored idealized execution was race-free. */
    bool obeysDrf0 = true;

    /** True if enumeration hit a cap, so the verdict is only a bounded
     * guarantee. */
    bool bounded = false;

    /** Number of complete idealized executions explored. */
    std::uint64_t executions = 0;

    /** A witness racy execution, when one was found. */
    ExecutionTrace witness;
    Drf0TraceReport witnessReport;
};

/** Limits for exhaustive program checking. */
struct Drf0CheckLimits
{
    /** Max instructions executed along one interleaving. */
    int maxStepsPerExecution = 300;

    /** Max interleavings explored (complete or capped). Exhaustive
     * enumeration is exponential in interleavings; programs with
     * unbounded spin loops will hit this cap and get a bounded verdict —
     * use checkProgramSampled() for those. */
    std::uint64_t maxExecutions = 50000;
};

/** Classify one execution: find every conflicting pair not ordered by the
 * happens-before relation of the trace, sorted by address, then by id
 * pair. Runs the vector-clock engine; throws std::invalid_argument if
 * (po U so) is cyclic, which only a hand-built trace can be. */
Drf0TraceReport checkTrace(const ExecutionTrace &trace);

/** The pre-vector-clock implementation: dense bitset happens-before
 * closure plus an all-pairs conflict scan. O(n^2/64) time and memory —
 * kept as the differential oracle and for small-trace queries. Reports
 * the same races as checkTrace() on every acyclic trace. */
Drf0TraceReport checkTraceBitset(const ExecutionTrace &trace);

/** Exhaustively check a program over idealized executions
 * (Definition 3). */
Drf0ProgramReport checkProgram(const MultiProgram &program,
                               const Drf0CheckLimits &limits = {});

/**
 * Bounded DRF0 check over randomly scheduled idealized executions.
 *
 * For programs whose interleaving space is too large to enumerate
 * (anything with unbounded spin loops), run @p num_schedules seeded random
 * interleavings and race-check each trace. A race found proves the
 * program violates DRF0; a clean run is evidence, not proof (the report
 * is always marked bounded).
 *
 * Races are detected online by a vector-clock detector attached to the
 * interpreter, so a racy schedule is abandoned at its first race; the
 * witness is then rebuilt by replaying that schedule to completion, which
 * keeps the report identical to the offline full-trace check.
 */
Drf0ProgramReport checkProgramSampled(const MultiProgram &program,
                                      int num_schedules,
                                      std::uint64_t seed = 1,
                                      int max_steps_per_execution = 10000);

} // namespace wo

#endif // WO_CORE_DRF0_CHECKER_HH
