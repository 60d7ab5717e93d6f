/**
 * @file
 * Logical trace-replay engine with streaming DRF0 verification.
 *
 * Replays a recorded multithreaded trace under a seeded random
 * interleaving, re-synchronizing at locks, barriers and flag waits (the
 * FlexiCAS replayer discipline: recorded spin iterations are not replayed
 * verbatim — the synchronization operation re-executes against the
 * replayed memory state). Every executed operation becomes an Access in a
 * windowed ExecutionTrace and is fed online to a StreamingDrf0Checker;
 * the consumed prefix is retired with popFront(), so resident memory is
 * O(window + threads) at any trace length. Execution order is a linear
 * extension of (po U so) by construction — each access is appended at
 * the moment it logically performs — so the checker's fast path applies.
 *
 * This is the scale backend (millions of accesses per second). The
 * simulator-accurate backend that drives a full System from the same
 * trace lives in replay/system_replay.hh.
 */

#ifndef WO_REPLAY_REPLAY_ENGINE_HH
#define WO_REPLAY_REPLAY_ENGINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stream_checker.hh"
#include "core/trace.hh"
#include "replay/trace_format.hh"

namespace wo {

struct ReplayOptions
{
    /** Resident-window target in accesses; 0 retains the whole trace
     * (differential/debug mode). Retirement is batched, so the actual
     * high-water mark is bounded by ~1.5x this value. */
    int window = 1 << 16;

    /** FirstRace: O(addrs) detector state, the scale mode. AllRaces:
     * oracle-identical race sets for differential testing. */
    RaceDetectMode mode = RaceDetectMode::FirstRace;

    /** Interleaving seed. */
    std::uint64_t seed = 1;
};

struct ReplayResult
{
    /** False on a corrupt trace (the reader failed()) or deadlock (a
     * blocked record whose condition can never become true). */
    bool ok = true;
    std::string error;

    bool raceFree = true;
    std::vector<Race> races; ///< sorted by id pair

    std::uint64_t recordsReplayed = 0;
    std::uint64_t accesses = 0; ///< trace accesses fed to the checker
    std::int64_t eventsRetired = 0;
    int windowHighWater = 0;

    /** Final replayed memory over touched addresses. */
    std::map<Addr, Word> finalMemory;
};

class ReplayEngine
{
  public:
    ReplayEngine(ReplayTraceReader &reader, const ReplayOptions &opt);

    /** Replay the whole trace (reader must be at its start). */
    ReplayResult run();

    /** The trace window (complete trace when options.window == 0). */
    const ExecutionTrace &trace() const { return trace_; }

    const StreamingDrf0Checker &checker() const { return checker_; }

  private:
    struct Barrier
    {
        Word gen = 0;
        int arrived = 0;
    };

    struct ThreadState
    {
        bool done = false;
        bool inBarrier = false; ///< arrived, waiting for the episode open
        Word barrierGen = 0;    ///< episode generation at arrival
        int poIndex = 0;
    };

    /** Attempt one record of thread @p t; false if it is blocked. */
    bool tryStep(int t);
    void emit(int t, AccessKind kind, Addr addr, Word valueRead,
              Word valueWritten);
    Word load(Addr a) const;
    void maybeRetire();
    /** Open every barrier whose arrival count covers all live threads. */
    bool openReadyBarriers();

    ReplayTraceReader &reader_;
    ReplayOptions opt_;
    ExecutionTrace trace_;
    StreamingDrf0Checker checker_;
    std::unordered_map<Addr, Word> mem_;
    std::unordered_map<Addr, Barrier> barriers_;
    std::vector<ThreadState> threads_;
    int liveThreads_ = 0;
    Tick tick_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace wo

#endif // WO_REPLAY_REPLAY_ENGINE_HH
