/**
 * @file
 * Log2-bucketed latency histogram backed by StatSet counters.
 *
 * Bucket 0 holds zero-tick samples; bucket i (i >= 1) holds values in
 * [2^(i-1), 2^i - 1]; the last bucket absorbs everything at or above
 * 2^(kBuckets-2). Each bucket is mirrored into a StatSet slot
 * ("<prefix>.bucket_07": 64..127 ticks) together with ".count",
 * ".total" and a Kind::Max ".max", so histograms merge correctly across
 * campaign shards and appear in dumpJson like any other stat.
 *
 * StatSet handles are interned lazily on the first record(): a histogram
 * owned by a component with no trace sink attached never touches the
 * registry, keeping tracing-off stat output byte-identical.
 *
 * Each histogram has a LatencyKind, which names its stat prefix
 * ("<owner>.lat_msg") and the CoverageMap bucket row every sample bumps
 * when a map is installed.
 */

#ifndef WO_OBS_LATENCY_HISTOGRAM_HH
#define WO_OBS_LATENCY_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/coverage.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wo {

/** A power-of-two latency histogram (see file comment for bucketing). */
class LatencyHistogram
{
  public:
    /** Bucket 0 plus 32 log2 buckets plus one overflow bucket. */
    static constexpr int kBuckets = kLatencyBuckets;

    /** The histogram of @p kind owned by component @p owner: its stats
     * are "<owner>.<toString(kind)>.*". */
    LatencyHistogram(StatSet &stats, const std::string &owner,
                     LatencyKind kind)
        : stats_(stats), kind_(kind),
          prefix_(owner + "." + toString(kind))
    {
        counts_.fill(0);
    }

    /** Bucket for @p v: 0 for 0, floor(log2(v)) + 1 otherwise, capped.
     * Constant-time: this runs per latency sample when coverage is
     * enabled, where a shift loop is measurable. */
    static int
    bucketIndex(Tick v)
    {
        if (v == 0)
            return 0;
        int b = 64 - __builtin_clzll(static_cast<unsigned long long>(v));
        return b < kBuckets - 1 ? b : kBuckets - 1;
    }

    /** Smallest value bucket @p i holds. */
    static Tick
    bucketLow(int i)
    {
        return i == 0 ? 0 : Tick{1} << (i - 1);
    }

    /** Largest value bucket @p i holds (the overflow bucket is open). */
    static Tick
    bucketHigh(int i)
    {
        if (i == 0)
            return 0;
        if (i >= kBuckets - 1)
            return ~Tick{0};
        return (Tick{1} << i) - 1;
    }

    /** Record one sample (bumps local counts and the StatSet mirror,
     * plus the coverage bucket row when a CoverageMap is installed). */
    void record(Tick v);

    /**
     * Coverage-only sample: note @p v's bucket for the installed
     * CoverageMap without touching local counts or the StatSet (and
     * without interning any handles). The `if (sink_)` guards that
     * keep tracing-off reports byte-identical skip record() entirely;
     * their else-branches call this so bucket *occupancy* is still
     * observed when only coverage is enabled. No-op with no map
     * installed.
     */
    void
    coverOnly(Tick v)
    {
        if (CoverageMap *cov = activeCoverage())
            cov->hitBucket(kind_, bucketIndex(v));
    }

    /**
     * Zero the local counts for reuse. The StatSet mirror is NOT
     * touched here — the owner resets the whole StatSet alongside —
     * but already-interned handles stay valid for the next record().
     */
    void reset()
    {
        counts_.fill(0);
        count_ = 0;
        total_ = 0;
        max_ = 0;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t total() const { return total_; }
    Tick maxValue() const { return max_; }
    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return counts_;
    }

    const std::string &prefix() const { return prefix_; }

    /** Aligned text rendering (non-empty buckets only). */
    void render(std::ostream &os, int indent = 0) const;

  private:
    void internHandles();

    StatSet &stats_;
    LatencyKind kind_;
    std::string prefix_;
    bool interned_ = false;
    std::array<StatHandle, kBuckets> bucket_handles_;
    StatHandle count_handle_;
    StatHandle total_handle_;
    StatHandle max_handle_;

    std::array<std::uint64_t, kBuckets> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t total_ = 0;
    Tick max_ = 0;
};

} // namespace wo

#endif // WO_OBS_LATENCY_HISTOGRAM_HH
