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
 *  - checkProgram(): decide Definition 3 for a program, exactly, by a
 *    memoized search over the idealized machine's states.
 *
 * checkTrace() is the vector-clock StreamingDrf0Checker
 * (core/stream_checker.hh) fed the whole trace, O(n * P) per trace
 * instead of the O(n^2/64) dense happens-before closure. The closure
 * (core/happens_before.hh) survives as checkTraceBitset(), the
 * differential oracle.
 */

#ifndef WO_CORE_DRF0_CHECKER_HH
#define WO_CORE_DRF0_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/happens_before.hh"
#include "core/idealized.hh"
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

/** Outcome of checking a program against Definition 3. */
struct Drf0ProgramReport
{
    /** True iff no reachable idealized state has a race pending. */
    bool obeysDrf0 = true;

    /** True if the search hit its state cap before finding a race, so
     * the verdict is only a bounded guarantee. */
    bool bounded = false;

    /** Distinct idealized-machine states visited. */
    std::uint64_t states = 0;

    /** A witness racy execution, when one was found: the path to the
     * racing state followed by the two racing accesses. */
    ExecutionTrace witness;
    Drf0TraceReport witnessReport;
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

/**
 * Decide whether @p program obeys DRF0 (Definition 3).
 *
 * A program races iff some reachable state of the idealized machine has
 * two processors whose next instructions are memory accesses to one
 * address, at least one of them a write, not both syncs. (Any race can
 * be moved until its accesses are adjacent: every access not
 * happens-before the second one can be scheduled after it.) The check is
 * an iterative depth-first search over IdealizedMachine::stateKey()
 * states with a visited set, so spin loops end when they revisit a
 * state. Only @p limits.maxStates applies: reaching it with no race
 * found makes the verdict bounded.
 */
Drf0ProgramReport checkProgram(const MultiProgram &program,
                               const EnumLimits &limits = {});

} // namespace wo

#endif // WO_CORE_DRF0_CHECKER_HH
