/**
 * @file
 * Coverage observability: what has the whole campaign *exercised*?
 *
 * The trace layer answers "what happened in this run"; a
 * CoverageMap answers the campaign-scale question by counting, across
 * every run that executed with a map installed:
 *
 *   - coherence-protocol transition hits per (protocol, state, event) —
 *     instrumented at the single CoherenceProtocol::on() lookup site, so
 *     every L1, every MidCache probe translation and every protocol
 *     variant is covered by construction;
 *   - processor stall-segment activations per StallReason and cache
 *     miss stalls per MissStall (every cache of a machine lands on one
 *     row);
 *   - latency-histogram bucket occupancy per LatencyKind (which latency
 *     magnitudes the fleet has actually produced), recorded even when
 *     tracing is off.
 *
 * Every dimension is a fixed dense array indexed by the simulator's own
 * enums, and every recording site is a single increment. Row names
 * ("proc_stall/fence", "lat_msg/bucket_07", ...) exist only in the
 * standing report (StandingCoverage::addCoverage).
 *
 * Outcome coverage (policy x machine outcomes against the axiomatic
 * allowed sets) is not counted here: the litmus runner's report already
 * holds it as cell histograms, and litmus_dsl::standingCoverage() reads
 * it from there.
 *
 * Overhead contract: with no map installed every instrumented site
 * costs one thread-local load and one branch (the same discipline as
 * the `if (sink_)` trace path); with a map installed it adds one array
 * increment. bench/trace_overhead gates the coverage-ON path at <= 3%.
 * Recording never touches StatSet or any simulator state, so reports
 * stay byte-identical with coverage on.
 *
 * Threading/merge model (mirrors the runner's stats totals): each
 * campaign worker owns a CoverageMap that every System it runs points
 * at, installed for the duration of System::run via a thread-local
 * pointer (CoverageScope); the runner merges the worker maps once the
 * corpus is done. merge() is an element-wise sum — associative and
 * commutative (tests/test_coverage.cc) — so the merged counts do not
 * depend on which worker ran which job, and neither does any report
 * rendered from them, at any thread count.
 *
 * Reuse semantics: the map is owned by the campaign, not the System. A
 * pooled System reused between jobs keeps accumulating into whatever
 * map the new job's config names (coverage survives System::reuseFor);
 * dropping the pool drops nothing, because no coverage lives in the
 * System at all. A System must not outlive the map it points at: the
 * runner declares each worker's map before that worker's pool.
 */

#ifndef WO_OBS_COVERAGE_HH
#define WO_OBS_COVERAGE_HH

#include <cstdint>

#include "coherence/protocol.hh"
#include "consistency/policy.hh"

namespace wo {

/** The latency histograms the simulator keeps (one coverage family
 * each). */
enum class LatencyKind : std::uint8_t {
    IssueGp, ///< processor issue -> globally performed
    Msg,     ///< interconnect send -> delivery
};
inline constexpr int kNumLatencyKinds = 2;

/** Histogram family name ("lat_issue_gp", "lat_msg"): the last
 * component of the histogram's stat prefix and its coverage family. */
const char *toString(LatencyKind k);

/** Buckets per latency histogram: bucket 0 (zero ticks), 32 log2
 * buckets and one overflow bucket (see LatencyHistogram). */
inline constexpr int kLatencyBuckets = 34;

/** Campaign-scale coverage counters (see file comment). */
class CoverageMap
{
  public:
    /** Count one legal (protocol, state, event) transition hit. */
    void
    hitTransition(ProtocolKind k, LineState s, LineEvent e) noexcept
    {
        ++trans_[static_cast<int>(k)][static_cast<int>(s)]
                [static_cast<int>(e)];
    }

    /** Count one processor stall segment opening with @p why. */
    void
    hitStall(StallReason why) noexcept
    {
        ++stalls_[static_cast<int>(why)];
    }

    /** Count one cache miss queued for @p why. */
    void
    hitMissStall(MissStall why) noexcept
    {
        ++miss_stalls_[static_cast<int>(why)];
    }

    /** Count one latency sample landing in @p bucket of @p k. */
    void
    hitBucket(LatencyKind k, int bucket) noexcept
    {
        ++buckets_[static_cast<int>(k)][bucket];
    }

    std::uint64_t
    transitionCount(ProtocolKind k, LineState s, LineEvent e) const
    {
        return trans_[static_cast<int>(k)][static_cast<int>(s)]
                     [static_cast<int>(e)];
    }

    std::uint64_t
    stallCount(StallReason why) const
    {
        return stalls_[static_cast<int>(why)];
    }

    std::uint64_t
    missStallCount(MissStall why) const
    {
        return miss_stalls_[static_cast<int>(why)];
    }

    std::uint64_t
    bucketCount(LatencyKind k, int bucket) const
    {
        return buckets_[static_cast<int>(k)][bucket];
    }

    /** Accumulate @p other into this map (element-wise sum). */
    void merge(const CoverageMap &other);

  private:
    std::uint64_t trans_[kNumProtocolKinds][kNumLineStates]
                        [kNumLineEvents] = {};
    std::uint64_t stalls_[kNumStallReasons] = {};
    std::uint64_t miss_stalls_[kNumMissStalls] = {};
    std::uint64_t buckets_[kNumLatencyKinds][kLatencyBuckets] = {};
};

namespace detail {
/** Defined inline here rather than declared `extern`: GCC reaches an
 * extern thread_local through a TLS wrapper function, and its UBSan null
 * check rejects the CoverageScope store through that wrapper. */
inline thread_local CoverageMap *t_active_coverage = nullptr;
} // namespace detail

/** The map installed on this thread; null = coverage disabled. Every
 * instrumented site branches on this (the one-branch disabled path). */
inline CoverageMap *
activeCoverage() noexcept
{
    return detail::t_active_coverage;
}

/**
 * RAII installer for the thread-local active map. System::runStreaming
 * wraps execution in a scope built from SystemConfig::coverage, so a
 * System with no coverage configured never records into an ambient
 * map. Scopes nest; the destructor restores the previous map.
 */
class CoverageScope
{
  public:
    explicit CoverageScope(CoverageMap *map)
        : prev_(detail::t_active_coverage)
    {
        detail::t_active_coverage = map;
    }
    ~CoverageScope() { detail::t_active_coverage = prev_; }

    CoverageScope(const CoverageScope &) = delete;
    CoverageScope &operator=(const CoverageScope &) = delete;

  private:
    CoverageMap *prev_;
};

} // namespace wo

#endif // WO_OBS_COVERAGE_HH
