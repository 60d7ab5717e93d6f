/**
 * @file
 * Streaming vector-clock race detection over the paper's happens-before
 * relation hb = (po U so)+.
 *
 * The detector consumes accesses one at a time and maintains:
 *  - one vector clock per processor (program order);
 *  - one release clock per synchronization location (the so edges:
 *    every sync operation at location s both acquires the clock left by
 *    the previous sync at s and releases its own);
 *  - per-address last-write / last-read state compressed to FastTrack
 *    epochs, widened to a per-processor read vector only when reads are
 *    genuinely concurrent.
 *
 * Cost is O(1) amortized per access in FirstRace mode (O(P) on the rare
 * concurrent-read writes), versus the O(n^2/64) time and memory of the
 * dense happens-before closure it replaces. Feeding order must be a
 * linear extension of (po U so) — the natural recording order of the
 * idealized interpreter, which lets races be reported online, during
 * execution, instead of by post-processing the complete trace.
 */

#ifndef WO_CORE_RACE_DETECTOR_HH
#define WO_CORE_RACE_DETECTOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/access.hh"
#include "core/vector_clock.hh"

namespace wo {

/** One unordered conflicting pair found by a checker (trace ids,
 * normalized so that first < second). */
struct Race
{
    int first;  ///< trace id
    int second; ///< trace id

    bool operator==(const Race &o) const
    {
        return first == o.first && second == o.second;
    }

    bool operator<(const Race &o) const
    {
        return first != o.first ? first < o.first : second < o.second;
    }
};

/** What the detector reports. */
enum class RaceDetectMode {
    /** Stop at the first race: the hot-path mode for streamed replay
     * verdicts. Per-address state is pure FastTrack epochs. */
    FirstRace,

    /** Report every unordered conflicting pair, exactly the set the
     * dense happens-before closure enumerates. Keeps the full
     * same-address access history (epochs, so each pair test is still
     * O(1)); quadratic only in the number of conflicting accesses per
     * address of racy traces. */
    AllRaces,
};

/**
 * Online race detector. Create (or reset()) per execution, then feed
 * every recorded access in a linear extension of (po U so) — trace order
 * for idealized executions. hasRace() may be polled after every step for
 * early exit.
 */
class RaceDetector
{
  public:
    explicit RaceDetector(int numProcs,
                          RaceDetectMode mode = RaceDetectMode::FirstRace);

    /** Forget all state (keeping allocations) for a fresh execution. */
    void reset(int numProcs);

    /** Observe the next access. No-op once a race was found in
     * FirstRace mode. */
    void onAccess(const Access &a);

    /** True once at least one race has been found. */
    bool hasRace() const { return !races_.empty(); }

    /** The races found so far, in detection order. */
    const std::vector<Race> &races() const { return races_; }

    /** Accesses consumed since construction/reset. */
    std::uint64_t accessesSeen() const { return seen_; }

    RaceDetectMode mode() const { return mode_; }

  private:
    /** A past access at one address, compressed to an epoch. */
    struct HistEntry
    {
        std::uint32_t clock;
        ProcId proc;
        int id;
        bool readOnly; ///< read with no write component
    };

    /** Per-proc (clock, trace id) of the latest read, for the widened
     * concurrent-read representation. */
    struct ReadSlot
    {
        std::uint32_t clock = 0;
        int id = -1;
    };

    /** Everything the detector keeps about one address, so an access
     * costs one hash lookup. */
    struct VarState
    {
        VectorClock release; ///< clock of the last sync here (so source)
        Epoch write;         ///< epoch of the last write component
        int writeId = -1;
        Epoch read;          ///< last read, while reads are totally ordered
        int readId = -1;
        std::vector<ReadSlot> readsByProc; ///< non-empty once widened
        std::vector<HistEntry> hist;       ///< AllRaces mode only
    };

    void record(int a, int b);

    RaceDetectMode mode_;
    int nprocs_ = 0;
    std::vector<VectorClock> clocks_;
    std::unordered_map<Addr, VarState> vars_;
    std::vector<Race> races_;
    std::uint64_t seen_ = 0;
};

} // namespace wo

#endif // WO_CORE_RACE_DETECTOR_HH
