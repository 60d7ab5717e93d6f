/**
 * @file
 * Deterministic generators for recorded lock/barrier workload traces at
 * configurable scale — the replay pipeline's test and bench inputs.
 *
 * Each generator writes through the streaming ReplayTraceWriter, so
 * producing a 10M-record trace costs O(buffer) memory. All generators are
 * race-free by construction (every shared data access is protected by a
 * lock, a barrier episode, or a flag hand-off); `injectRace` plants one
 * unprotected conflicting write pair for negative testing.
 */

#ifndef WO_REPLAY_TRACE_GEN_HH
#define WO_REPLAY_TRACE_GEN_HH

#include <cstdint>
#include <string>

#include "replay/trace_format.hh"

namespace wo {

struct TraceGenConfig
{
    int threads = 4;

    /** Spinlock/barrier: rounds per thread. Producer-consumer: items per
     * producer. */
    int rounds = 100;

    /** Data accesses inside each critical section / barrier phase. */
    int opsPerRound = 4;

    std::uint64_t seed = 1;

    /** Plant one unsynchronized conflicting write pair. */
    bool injectRace = false;
};

/**
 * Write the named workload's trace to @p path: "spinlock" (lock-protected
 * critical sections over a shared counter array), "barrier"
 * (bulk-synchronous rounds: thread 0 publishes a cell, everyone meets at
 * a barrier and reads it) or "prodcons" (producers write item cells and
 * raise a per-item flag; consumers wait on it and read). Returns false
 * for any other name or a failed write.
 */
bool writeWorkloadTrace(const std::string &workload, const std::string &path,
                        const TraceGenConfig &cfg);

} // namespace wo

#endif // WO_REPLAY_TRACE_GEN_HH
