/**
 * @file
 * Coverage observability: what has the whole campaign *exercised*?
 *
 * The PR-5 trace layer answers "what happened in this run"; a
 * CoverageMap answers the campaign-scale question by counting, across
 * every run that executed with a map installed:
 *
 *   - coherence-protocol transition hits, dense per
 *     (protocol, state, event) — instrumented at the single
 *     CoherenceProtocol::on() lookup site, so every L1, every MidCache
 *     probe translation and every protocol variant is covered by
 *     construction;
 *   - stall-reason activations per StallReasonFamily (and processor
 *     stall segments), keyed by instance-stripped stat names so the
 *     per-cache counters of one machine merge into one row;
 *   - latency-histogram bucket occupancy (which latency magnitudes the
 *     fleet has actually produced), recorded even when tracing is off.
 *
 * Outcome coverage (policy x machine outcomes against the axiomatic
 * allowed sets) is not counted here: the litmus runner's report already
 * holds it as cell histograms, and litmus_dsl::standingCoverage() reads
 * it from there.
 *
 * Overhead contract: with no map installed every instrumented site
 * costs one thread-local load and one branch (the same discipline as
 * the `if (sink_)` trace path); bench/trace_overhead gates the
 * coverage-ON path at <= 3%. Per-sample sites too hot even for an
 * interned-id bump (latency buckets) accumulate into private pending
 * arrays and flush once per scope via registerCoverageFlush().
 * Recording never touches StatSet or any simulator state, so reports
 * stay byte-identical with coverage on.
 *
 * Threading/merge model (mirrors the runner's stats totals): each
 * campaign worker owns a CoverageMap that every System it runs points
 * at, installed for the duration of System::run via a thread-local
 * pointer (CoverageScope); the runner merges the worker maps once the
 * corpus is done. merge() is a per-key sum — associative and
 * commutative (tests/test_coverage.cc) — so the merged counts do not
 * depend on which worker ran which job, and neither does any report
 * rendered from them, at any thread count. Only intern order (keys())
 * follows scheduling.
 *
 * Reset semantics: the map is owned by the campaign, not the System. A
 * pooled System reset between jobs keeps accumulating into whatever map
 * the new job's config names (coverage survives System::reset);
 * dropping the pool drops nothing, because no coverage lives in the
 * System at all. A System must not outlive the map it points at: the
 * runner declares each worker's map before that worker's pool.
 */

#ifndef WO_OBS_COVERAGE_HH
#define WO_OBS_COVERAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/protocol.hh"

namespace wo {

/** Campaign-scale coverage counters (see file comment). */
class CoverageMap
{
  public:
    /** Named-key dimensions (the transition dimension is dense and
     * enum-indexed instead). */
    enum class Dim : std::uint8_t {
        Stall,  ///< "family/reason", instance-stripped stat names
        Bucket, ///< "histogram/bucket_NN", instance-stripped
    };
    static constexpr int kNumDims = 2;

    CoverageMap();

    // ------------------------------------------------------------------
    // Transition dimension (dense, hot).

    /** Count one legal (protocol, state, event) transition hit. */
    void
    hitTransition(ProtocolKind k, LineState s, LineEvent e) noexcept
    {
        ++trans_[static_cast<int>(k)][static_cast<int>(s)]
                [static_cast<int>(e)];
    }

    std::uint64_t
    transitionCount(ProtocolKind k, LineState s, LineEvent e) const
    {
        return trans_[static_cast<int>(k)][static_cast<int>(s)]
                     [static_cast<int>(e)];
    }

    // ------------------------------------------------------------------
    // Named-key dimensions.

    /**
     * Intern @p key in dimension @p d, returning its dense id (stable
     * for the life of this map, until clear()). Interning alone seeds
     * the key at count 0.
     */
    std::uint32_t internKey(Dim d, const std::string &key);

    /** Bump an interned key by @p n (the hot path for cached ids). */
    void
    hit(Dim d, std::uint32_t id, std::uint64_t n = 1)
    {
        dims_[static_cast<int>(d)].counts[id] += n;
    }

    /** Intern-and-bump in one call (cold paths). */
    void
    hitKey(Dim d, const std::string &key, std::uint64_t n = 1)
    {
        hit(d, internKey(d, key), n);
    }

    /** Keys of dimension @p d in intern order (id == index). */
    const std::vector<std::string> &
    keys(Dim d) const
    {
        return dims_[static_cast<int>(d)].keys;
    }

    /** Counts of dimension @p d, parallel to keys(). */
    const std::vector<std::uint64_t> &
    counts(Dim d) const
    {
        return dims_[static_cast<int>(d)].counts;
    }

    // ------------------------------------------------------------------
    // Lifecycle.

    /** Accumulate @p other into this map (keys union, counts sum;
     * zero-count seeded keys are carried over too). */
    void merge(const CoverageMap &other);

    /** Drop every key and zero every counter. Bumps generation(): any
     * cached interned ids are invalidated. */
    void clear();

    /**
     * Identity token for call-site id caches. Unique per live map and
     * per clear() — a component may cache interned ids for the pair
     * (map pointer, generation) and re-intern when either changes
     * (a map constructed after another died can reuse its address, so
     * the pointer alone is not an identity).
     */
    std::uint64_t generation() const { return gen_; }

    /** True when nothing has been recorded or seeded. */
    bool empty() const;

  private:
    struct NamedDim
    {
        std::unordered_map<std::string, std::uint32_t> ids;
        std::vector<std::string> keys;
        std::vector<std::uint64_t> counts;
    };

    std::uint64_t trans_[kNumProtocolKinds][kNumLineStates]
                        [kNumLineEvents];
    std::array<NamedDim, kNumDims> dims_;
    std::uint64_t gen_;
};

namespace detail {
/** Defined inline here rather than declared `extern`: GCC reaches an
 * extern thread_local through a TLS wrapper function, and its UBSan null
 * check rejects the CoverageScope store through that wrapper. */
inline thread_local CoverageMap *t_active_coverage = nullptr;

/** Run (and clear) this thread's deferred coverage flushes against the
 * currently-active map. Called by CoverageScope around every map
 * switch, so pending deltas always land in the map that was installed
 * while they accumulated. */
void flushPendingCoverage();
} // namespace detail

/**
 * Defer a coverage flush to the end of the current scope: @p fn is
 * called once with @p obj and the active map (null if none — the
 * callee must drop its pending state either way) when the installing
 * CoverageScope closes or the active map changes. Hot recorders
 * (latency histograms) accumulate into private pending arrays and
 * register themselves on first use instead of touching the shared map
 * per sample; a callback registers at most once per flush cycle
 * (callers guard with their own dirty flag).
 */
void registerCoverageFlush(void *obj, void (*fn)(void *, CoverageMap *));

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
        detail::flushPendingCoverage();
        detail::t_active_coverage = map;
    }
    ~CoverageScope()
    {
        detail::flushPendingCoverage();
        detail::t_active_coverage = prev_;
    }

    CoverageScope(const CoverageScope &) = delete;
    CoverageScope &operator=(const CoverageScope &) = delete;

  private:
    CoverageMap *prev_;
};

/**
 * Strip a stat name's leading component instance ("cache3.miss_stalls"
 * -> "miss_stalls") so per-instance counters of one machine land on one
 * coverage key. Names without a '.' are returned unchanged.
 */
std::string stripInstance(const std::string &stat_name);

} // namespace wo

#endif // WO_OBS_COVERAGE_HH
