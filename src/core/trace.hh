/**
 * @file
 * ExecutionTrace: the record of one execution's dynamic memory accesses,
 * plus RunResult: the paper's notion of the "result" of an execution.
 */

#ifndef WO_CORE_TRACE_HH
#define WO_CORE_TRACE_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/access.hh"
#include "sim/types.hh"

namespace wo {

/**
 * All dynamic memory accesses of one execution.
 *
 * Accesses are stored in the order they were recorded (commit order for the
 * hardware simulator, execution order for the idealized architecture).
 * Initializing writes are modelled implicitly: every location starts at an
 * initial value, ordered before all program accesses — exactly the paper's
 * hypothetical initializing write + synchronization preamble.
 *
 * Per-processor and per-sync-location id indices are built lazily: add()
 * only appends the access, and the first accessesOf()/syncsAt()/
 * syncAddrs() query after it indexes every access recorded since the
 * previous query (an "indexed through" watermark). Whole-trace readers
 * (the SC verifier, HappensBefore) thus still get cached const
 * references, while the streaming pipelines, which never query, pay
 * nothing per access. numProcs() is kept eagerly and costs O(1). Because
 * a query may write the indices, two threads must not query one trace at
 * the same time.
 *
 * Windowed retention: popFront() retires the oldest accesses so only a
 * sliding window stays resident. Trace ids are stable — they keep naming
 * the same access after retirement — but at()/mutableAt() may only be
 * called for ids in [firstId(), size()). The invariant
 * retired() + resident() == size() holds at all times, and
 * windowHighWater() records the largest resident population ever reached,
 * so bounded-retention behaviour is observable. Retired accesses stay in
 * storage as a dead prefix until it reaches a quarter of the resident
 * window, and only then are the survivors moved down, so retiring costs
 * O(retired) amortized rather than O(resident) per popFront().
 */
class ExecutionTrace
{
  public:
    ExecutionTrace() = default;

    /** Append an access; assigns and returns its trace id. */
    int add(Access a);

    /** Pre-size storage for @p n accesses (hot recording loops). */
    void reserve(int n);

    /** One past the largest trace id ever assigned. Equals the number of
     * accesses when nothing has been retired (the common, whole-trace
     * case), so full-trace callers iterate ids in [0, size()) unchanged. */
    int size() const { return base_ + resident(); }

    /** Smallest trace id still resident (0 until popFront is used). */
    int firstId() const { return base_; }

    /** Number of accesses currently resident in the window. */
    int resident() const
    {
        return static_cast<int>(accesses_.size()) - dead_;
    }

    /** Number of accesses retired by popFront() since the last clear(). */
    std::int64_t retired() const { return base_; }

    /** Largest resident population ever reached since the last clear(). */
    int windowHighWater() const { return high_water_; }

    /** Access by trace id. Throws std::out_of_range unless the id is
     * resident, in [firstId(), size()). */
    const Access &at(int id) const { return accesses_[slot(id)]; }

    /** Mutable access (the simulator patches gp times in later). The id
     * must still be resident: the replay drain only retires accesses whose
     * commit/gp ticks are final. */
    Access &mutableAt(int id) { return accesses_[slot(id)]; }

    /** All resident accesses, oldest first. The view is valid until the
     * next add()/popLast()/popFront()/clear(). */
    std::span<const Access> accesses() const
    {
        return {accesses_.data() + dead_,
                static_cast<std::size_t>(resident())};
    }

    /** Remove the most recently added access (backtracking support).
     * Throws std::logic_error on an empty window. */
    void popLast();

    /** Retire the @p n oldest resident accesses. Their ids remain
     * assigned (size() does not shrink) but they can no longer be
     * inspected; per-proc and per-sync index caches are pruned.
     * Throws std::logic_error unless 0 <= n <= resident(). */
    void popFront(int n);

    /** Drop every access, index, initial value and retention counter,
     * keeping allocated capacity where the containers allow (System
     * reuse). */
    void clear();

    /** Number of processors appearing in the trace. */
    int numProcs() const { return nprocs_; }

    /** Trace ids of @p proc's resident accesses, sorted by program order.
     * The reference is valid until the next add()/popLast()/popFront(). */
    const std::vector<int> &accessesOf(ProcId proc) const;

    /** Trace ids of resident synchronization accesses to @p addr, sorted
     * by commit time (ties broken by trace order). The reference is valid
     * until the next add()/popLast()/popFront(). */
    const std::vector<int> &syncsAt(Addr addr) const;

    /** Distinct addresses appearing in the resident window. */
    std::vector<Addr> addrs() const;

    /** Distinct addresses with at least one resident synchronization
     * access, ascending. */
    std::vector<Addr> syncAddrs() const;

    /** Set the initial value of a location. */
    void setInitial(Addr addr, Word value);

    /** Initial value of @p addr (default 0). */
    Word initialValue(Addr addr) const;

    /** All explicitly-set initial values, ascending by address. */
    const std::vector<std::pair<Addr, Word>> &initials() const
    {
        return initials_;
    }

    /** Multi-line dump for debugging and reports (resident window only). */
    std::string toString() const;

  private:
    /** Lazily extended id list plus its lazily sorted view. */
    struct IndexList
    {
        std::vector<int> ids; ///< append order
        std::vector<int> sorted;
        bool dirty = true;
    };

    /** Storage index of resident id @p id; throws if not resident. */
    std::size_t slot(int id) const
    {
        const auto i = static_cast<std::size_t>(id - base_);
        if (i >= static_cast<std::size_t>(resident())) [[unlikely]]
            throwNotResident(id);
        return static_cast<std::size_t>(dead_) + i;
    }

    [[noreturn]] void throwNotResident(int id) const;

    /** Resident access @p id, unchecked. */
    const Access &live(int id) const
    {
        return accesses_[static_cast<std::size_t>(dead_ + id - base_)];
    }

    /** Index every access added since the watermark. */
    void catchUp() const;

    /** accesses_ holds dead_ retired accesses, then the resident ones. */
    std::vector<Access> accesses_;
    std::vector<std::pair<Addr, Word>> initials_; ///< sorted by address
    mutable std::vector<IndexList> byProc_;
    mutable std::map<Addr, IndexList> syncs_;
    mutable int indexed_ = 0; ///< ids below this are in the indices
    int base_ = 0;            ///< first resident id == number retired
    int dead_ = 0;            ///< retired accesses not yet compacted away
    int nprocs_ = 0;          ///< highest present processor + 1
    int high_water_ = 0;      ///< max resident() ever reached
};

/**
 * The observable outcome of an execution: the values returned by reads are
 * summarized by the final architectural state (registers), together with
 * the final state of memory — the two components of the paper's "result".
 */
struct RunResult
{
    /** Final memory values over the touched addresses. */
    std::map<Addr, Word> finalMemory;

    /** Final register values, one vector per processor. */
    std::vector<std::vector<Word>> registers;

    /** True if every processor reached Halt. */
    bool allHalted = false;

    bool operator==(const RunResult &o) const
    {
        return finalMemory == o.finalMemory && registers == o.registers &&
               allHalted == o.allHalted;
    }

    bool operator<(const RunResult &o) const
    {
        if (finalMemory != o.finalMemory)
            return finalMemory < o.finalMemory;
        if (registers != o.registers)
            return registers < o.registers;
        return allHalted < o.allHalted;
    }

    /** One-line description. */
    std::string toString() const;
};

} // namespace wo

#endif // WO_CORE_TRACE_HH
