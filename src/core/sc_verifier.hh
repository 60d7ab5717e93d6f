/**
 * @file
 * Sequential-consistency verification of recorded executions.
 *
 * Given the per-processor program-ordered sequences of dynamic accesses of
 * one execution (with the values reads returned), decide whether there
 * exists a single total order of all accesses, consistent with every
 * processor's program order, in which each read returns the value of the
 * most recent preceding write to the same location (or the initial value).
 *
 * This is Lamport's definition operationalized, and is the check the new
 * definition of weak ordering (Definition 2) requires: hardware must
 * "appear sequentially consistent" to conforming software, i.e. every
 * execution it produces for such software must pass this verifier.
 *
 * The search is a memoized backtracking exploration over frontier states
 * (one index per processor + current memory contents). Deciding this
 * problem is NP-hard in general, but litmus- and workload-sized executions
 * verify quickly; a state cap makes the verifier return Unknown rather
 * than run away.
 *
 * Hot-path representation: addresses are interned once up front so all
 * per-location state (frontier memory, single-toucher flags, pending
 * write counts) lives in dense vectors indexed by address id. A
 * per-(location, value) remaining-write count, keyed on the full 64-bit
 * value, prunes any state in which some processor's next read can no
 * longer be satisfied by any pending write.
 *
 * Reusable workspace: a corpus job's trace is tiny (a few dozen accesses,
 * a handful of search states), so building the search's tables costs
 * more than searching them. ScVerifier owns every buffer the search
 * uses: the frontier, frontier memory, the address and (location, value)
 * tables, the undo stack, the witness and the visited-state set. The
 * tables are open-addressed arrays emptied in O(1) by an epoch bump, and
 * every buffer keeps its capacity between calls, so a warm check()
 * allocates nothing but the witness it returns, if asked for one. Campaign workers each
 * own one verifier, next to their SystemPool: a workspace is not
 * thread-safe, and one per worker needs no locking or thread-local
 * state. verifySc() is the one-shot form on a fresh workspace; both run
 * the same search, so verdicts and statesExplored never depend on what
 * a workspace checked before.
 */

#ifndef WO_CORE_SC_VERIFIER_HH
#define WO_CORE_SC_VERIFIER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.hh"

namespace wo {

/** Verdict of the SC verifier. */
enum class ScVerdict {
    Sc,      ///< a witness total order exists
    NotSc,   ///< exhaustively shown: no total order explains the execution
    Unknown, ///< state cap exceeded before a verdict was reached
};

/** Outcome of verifying one execution. */
struct ScReport
{
    ScVerdict verdict = ScVerdict::Unknown;

    /** Witness: trace ids in a legal total order (when verdict == Sc). */
    std::vector<int> witnessOrder;

    /** Distinct search states explored. */
    std::uint64_t statesExplored = 0;

    bool sc() const { return verdict == ScVerdict::Sc; }

    std::string toString() const;
};

/** Limits for the verifier's search. */
struct ScVerifierLimits
{
    std::uint64_t maxStates = 20000000;
};

/**
 * The SC verifier with a reusable workspace (see the file comment).
 * Not thread-safe: give each thread its own.
 */
class ScVerifier
{
  public:
    ScVerifier();
    ~ScVerifier();

    /**
     * Check whether @p trace has a sequentially consistent explanation.
     * Initial memory values are taken from the trace's initials
     * (default 0). The trace must hold every access it recorded
     * (nothing retired by popFront). With @p keepWitness false an Sc
     * report's witnessOrder stays empty, sparing its copy (a verdict-only
     * caller); the search is the same either way.
     */
    ScReport check(const ExecutionTrace &trace,
                   const ScVerifierLimits &limits = {},
                   bool keepWitness = true);

  private:
    class Workspace;
    std::unique_ptr<Workspace> ws_;
};

/** One-shot check: ScVerifier().check(@p trace, @p limits). */
ScReport verifySc(const ExecutionTrace &trace,
                  const ScVerifierLimits &limits = {});

} // namespace wo

#endif // WO_CORE_SC_VERIFIER_HH
