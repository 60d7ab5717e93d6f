/**
 * @file
 * The DRF0 race-check engine: one vector-clock RaceDetector fed a
 * linear extension of (po U so), whole-trace or over a bounded window.
 *
 * checkTrace() is this checker in AllRaces mode plus finish() on the
 * complete trace. The trace-replay pipeline instead feeds accesses as
 * they become final: the detector's per-proc clocks and per-sync-location
 * release clocks carry happens-before state across window boundaries,
 * and the trace owner retires the consumed prefix with
 * ExecutionTrace::popFront() so resident memory stays O(window) while
 * the verdict stays identical to the whole-trace check.
 *
 * Three feeding disciplines:
 *  - onAccess(): the caller guarantees it emits a linear extension of
 *    (po U so) — true for the replay engine and the idealized
 *    interpreter, whose execution order is such an extension by
 *    construction. Ids must arrive densely from frontier().
 *  - drainWindow(): for simulator traces, where trace order is issue
 *    order and synchronization operations may commit out of issue order.
 *    The drain admits only accesses that are final (commit and gp ticks
 *    patched) and safely below every still-pending commit, then feeds
 *    each batch in a local topological order of (po U so). See the
 *    implementation notes for the admission horizon.
 *  - finish(): everything still unfed, in trace order when that already
 *    linearizes (po U so), else in a topological order.
 *
 * Every drain admits a program-order prefix of each processor's unfed
 * accesses, so the consumed set is a per-processor prefix: the frontier
 * plus one "consumed through" id per processor. Each drain starts at the
 * frontier and costs O(unconsumed tail + admitted batch), not
 * O(resident window). In the topological feed each member has at most
 * two successors — the next member of its processor (po) and the next
 * member syncing on its address (so) — so the graph lives in reused
 * arrays with no per-batch allocation.
 *
 * A cyclic (po U so) — constructible only by hand, never by a machine —
 * has no happens-before order to check: feeding one throws
 * std::invalid_argument, as does draining an access with no processor.
 */

#ifndef WO_CORE_STREAM_CHECKER_HH
#define WO_CORE_STREAM_CHECKER_HH

#include <cstdint>
#include <vector>

#include "core/race_detector.hh"
#include "core/trace.hh"
#include "sim/types.hh"

namespace wo {

class StreamingDrf0Checker
{
  public:
    /** @p mode FirstRace keeps per-address state to FastTrack epochs —
     * O(addrs * procs) memory regardless of trace length, the scale mode.
     * AllRaces reproduces the oracle's full race set (per-address history
     * grows with conflicting accesses; differential testing only). */
    explicit StreamingDrf0Checker(
        int numProcs, RaceDetectMode mode = RaceDetectMode::FirstRace);

    /** Forget all state for a fresh trace. */
    void reset(int numProcs);

    /** Feed the next access of a stream that is already a linear
     * extension of (po U so), advancing the retirement frontier. Ids must
     * arrive densely from frontier(); any other throws std::logic_error. */
    void onAccess(const Access &a);

    /**
     * Consume every resident access of @p trace that is safe to order
     * now, given that simulation has advanced to @p now and every
     * commit/gp tick at or beyond @p now is still unknown. Feeds the
     * admitted batch in a topological order of its (po U so) edges.
     * Returns the number of accesses fed. Throws std::invalid_argument
     * naming the first unconsumed access that has no processor.
     */
    int drainWindow(const ExecutionTrace &trace, Tick now);

    /** Number of oldest resident accesses of @p trace already consumed —
     * the prefix the owner may ExecutionTrace::popFront() right now. */
    int retireReady(const ExecutionTrace &trace) const;

    /**
     * Consume everything still resident and unfed (end of run: all ticks
     * final). Accesses that never committed sort after every committed
     * one, matching HappensBefore's commit-order chains. Throws
     * std::invalid_argument if the leftover (po U so) edges are cyclic.
     */
    void finish(const ExecutionTrace &trace);

    bool raceFree() const { return det_.races().empty(); }

    /** Races in detection order (pairs of stable trace ids). */
    const std::vector<Race> &races() const { return det_.races(); }

    /** Races sorted by id pair — the stable form for differential
     * comparison against the whole-trace oracle (whose addr-major order
     * needs retired accesses to recompute). */
    std::vector<Race> sortedRaces() const;

    /** First trace id not yet consumed. */
    int frontier() const { return next_; }

    /** Accesses consumed since construction/reset. */
    std::uint64_t consumed() const { return det_.accessesSeen(); }

    RaceDetectMode mode() const { return det_.mode(); }

  private:
    /** Cover every processor of @p trace; returns the frontier's
     * resident index, where every pass over the window starts. */
    std::size_t startPass(const ExecutionTrace &trace);
    /** Whether @p a is consumed; throws if it has no processor. */
    bool isFed(const Access &a) const;
    /** Feed @p batch (resident trace ids, ascending) in a topological
     * order of its internal (po U so) edges; throws on a cycle. */
    void feedTopo(const ExecutionTrace &trace, const std::vector<int> &batch);

    RaceDetector det_;
    int next_ = 0;                ///< ids below this are all consumed
    std::vector<int> fedThrough_; ///< per proc: last consumed id, or -1
    // Scratch reused across drains; each sized by one batch.
    std::vector<int> batch_, poSucc_, soSucc_, indeg_, order_, syncs_,
        lastOfProc_;
    std::vector<char> blocked_;
};

} // namespace wo

#endif // WO_CORE_STREAM_CHECKER_HH
