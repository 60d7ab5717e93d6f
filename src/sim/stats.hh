/**
 * @file
 * Lightweight statistics registry.
 *
 * Components register named counters and scalars; harnesses dump them as
 * aligned tables. This mirrors (in miniature) the stats packages of
 * full-system simulators.
 *
 * Two access paths share one store:
 *
 *  - the string path (`inc("cache0.misses")`) resolves the name on every
 *    call — convenient for harnesses and one-off counters;
 *  - the handle path: a component resolves a StatHandle once at
 *    construction and bumps a dense array slot on the hot path, with no
 *    hashing, no string building and no allocation per event.
 *
 * A handle only *reserves* a slot: the stat stays invisible to get/has/
 * all/dump until the first bump, so registering handles never changes
 * reported output.
 */

#ifndef WO_SIM_STATS_HH
#define WO_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace wo {

/**
 * An interned reference to one StatSet counter. Cheap to copy; valid for
 * the lifetime of the StatSet that issued it. A default-constructed
 * handle is invalid and must not be bumped.
 */
class StatHandle
{
  public:
    StatHandle() = default;

    bool valid() const { return idx_ != kInvalid; }

  private:
    friend class StatSet;

    static constexpr std::uint32_t kInvalid = ~std::uint32_t(0);

    explicit StatHandle(std::uint32_t idx) : idx_(idx) {}

    std::uint32_t idx_ = kInvalid;
};

/**
 * A flat registry of named statistic values.
 *
 * Names are conventionally "component.stat", e.g. "cache0.misses".
 */
class StatSet
{
  public:
    /**
     * How a stat combines across shards in merge():
     *  - Sum: values add (event counters, totals);
     *  - Max: the merged value is the maximum (high-water marks tracked
     *    via maxOf()). Summing a high-water mark across campaign shards
     *    would fabricate a level no single run ever reached.
     */
    enum class Kind : std::uint8_t { Sum, Max };

    /**
     * Intern @p name and return its handle. Idempotent: the same name
     * always yields the same handle. The slot is reserved but stays
     * unreported until first bumped. @p kind applies on creation;
     * interning an existing Sum stat with Kind::Max upgrades it (the
     * reverse never downgrades).
     */
    StatHandle handle(const std::string &name, Kind kind = Kind::Sum);

    /** Add @p delta to the counter behind @p h (hot path). */
    void inc(StatHandle h, std::uint64_t delta = 1)
    {
        Slot &s = slots_[h.idx_];
        s.value += delta;
        s.touched = true;
        dirty_ = true;
    }

    /** Raise the counter behind @p h to at least @p value (hot path). */
    void maxOf(StatHandle h, std::uint64_t value)
    {
        Slot &s = slots_[h.idx_];
        if (!s.touched || s.value < value)
            s.value = value;
        s.touched = true;
        dirty_ = true;
    }

    /** Set the counter behind @p h to an absolute value (hot path). */
    void set(StatHandle h, std::uint64_t value)
    {
        Slot &s = slots_[h.idx_];
        s.value = value;
        s.touched = true;
        dirty_ = true;
    }

    /** Add @p delta to counter @p name (created at zero on first use). */
    void inc(const std::string &name, std::uint64_t delta = 1)
    {
        inc(handle(name), delta);
    }

    /** Set counter @p name to an absolute value. */
    void set(const std::string &name, std::uint64_t value);

    /** Track the maximum of values reported for @p name. Marks the stat
     * Kind::Max, so merge() combines it with max instead of +. */
    void maxOf(const std::string &name, std::uint64_t value)
    {
        maxOf(handle(name, Kind::Max), value);
    }

    /** Value of @p name, or 0 if never touched. */
    std::uint64_t get(const std::string &name) const;

    /** True if the counter exists (has been bumped, not just interned). */
    bool has(const std::string &name) const;

    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        syncValues();
        return values_;
    }

    /**
     * Merge another StatSet into this one: Sum-kind stats add, Max-kind
     * stats (see maxOf) combine with max. A stat absent on one side
     * adopts the other side's value and kind.
     */
    void merge(const StatSet &other);

    /**
     * Fold one run of @p run into this running total: merge() without
     * the name lookups, for a total fed only by successive runs of the
     * one StatSet @p run. That StatSet's slots survive reset() and only
     * ever append, so slot i names the same stat on both sides; new
     * slots are appended here, kinds upgrade Sum->Max as merge() does,
     * and untouched slots are skipped. O(slots), no allocation once the
     * total has caught up with @p run's slots. Throws std::logic_error
     * if @p run is visibly not the StatSet this total follows (fewer
     * slots, or a different name in the last shared slot).
     */
    void accumulate(const StatSet &run);

    /** Remove every counter (interned handles become invalid). */
    void clear();

    /**
     * Zero every counter and max-tracker for reuse, keeping interned
     * slots (and therefore every issued StatHandle) valid. Reset stats
     * revert to untouched: they disappear from get/has/all/dump until
     * bumped again, so a reset StatSet reports exactly what a freshly
     * constructed one would. Kind markings (Sum/Max) are retained,
     * matching what re-interning at construction would restore.
     */
    void reset();

    /** Pretty-print as an aligned two-column table. */
    void dump(std::ostream &os, const std::string &prefix_filter = "") const;

    /**
     * Emit as a JSON object ({"name": value, ...}, keys sorted), for
     * machine-readable reports (`wo-litmus --json`, bench harnesses).
     *
     * @param prefix_filter keep only counters whose name starts with it.
     * @param indent leading spaces on every line after the first, so the
     *        object can be embedded in a larger document.
     */
    void dumpJson(std::ostream &os, const std::string &prefix_filter = "",
                  int indent = 0) const;

  private:
    struct Slot
    {
        std::string name;
        std::uint64_t value = 0;
        Kind kind = Kind::Sum;
        bool touched = false; ///< bumped at least once (reportable)
    };

    /** Combine @p theirs into @p mine by @p mine's kind (+ or max). */
    static void combine(Slot &mine, const Slot &theirs);

    /** Rebuild the sorted name->value view if any slot changed. */
    void syncValues() const;

    const Slot *find(const std::string &name) const;

    std::vector<Slot> slots_;
    std::unordered_map<std::string, std::uint32_t> index_;

    /** Cached sorted view for all(); rebuilt lazily. */
    mutable std::map<std::string, std::uint64_t> values_;
    mutable bool dirty_ = false;
};

} // namespace wo

#endif // WO_SIM_STATS_HH
