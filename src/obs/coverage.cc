#include "obs/coverage.hh"

#include <atomic>
#include <cstring>

namespace wo {

namespace {

struct FlushEntry
{
    void *obj;
    void (*fn)(void *, CoverageMap *);
};

/** This thread's deferred flushes, in registration (first-hit) order —
 * a deterministic order, so flushed counts merge identically for any
 * thread count. */
thread_local std::vector<FlushEntry> t_pending_flushes;

} // namespace

namespace detail {

void
flushPendingCoverage()
{
    if (t_pending_flushes.empty())
        return;
    for (const FlushEntry &entry : t_pending_flushes)
        entry.fn(entry.obj, t_active_coverage);
    t_pending_flushes.clear();
}

} // namespace detail

void
registerCoverageFlush(void *obj, void (*fn)(void *, CoverageMap *))
{
    t_pending_flushes.push_back({obj, fn});
}

namespace {

/** Unique per construction/clear (see CoverageMap::generation). */
std::uint64_t
nextGeneration()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

CoverageMap::CoverageMap() : gen_(nextGeneration())
{
    std::memset(trans_, 0, sizeof(trans_));
}

std::uint32_t
CoverageMap::internKey(Dim d, const std::string &key)
{
    NamedDim &dim = dims_[static_cast<int>(d)];
    auto it = dim.ids.find(key);
    if (it != dim.ids.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(dim.keys.size());
    dim.ids.emplace(key, id);
    dim.keys.push_back(key);
    dim.counts.push_back(0);
    return id;
}

void
CoverageMap::merge(const CoverageMap &other)
{
    for (int k = 0; k < kNumProtocolKinds; ++k)
        for (int s = 0; s < kNumLineStates; ++s)
            for (int e = 0; e < kNumLineEvents; ++e)
                trans_[k][s][e] += other.trans_[k][s][e];
    for (int d = 0; d < kNumDims; ++d) {
        const NamedDim &src = other.dims_[d];
        for (std::size_t i = 0; i < src.keys.size(); ++i) {
            std::uint32_t id =
                internKey(static_cast<Dim>(d), src.keys[i]);
            dims_[d].counts[id] += src.counts[i];
        }
    }
}

void
CoverageMap::clear()
{
    std::memset(trans_, 0, sizeof(trans_));
    for (NamedDim &dim : dims_) {
        dim.ids.clear();
        dim.keys.clear();
        dim.counts.clear();
    }
    gen_ = nextGeneration();
}

bool
CoverageMap::empty() const
{
    for (int k = 0; k < kNumProtocolKinds; ++k)
        for (int s = 0; s < kNumLineStates; ++s)
            for (int e = 0; e < kNumLineEvents; ++e)
                if (trans_[k][s][e])
                    return false;
    for (const NamedDim &dim : dims_)
        if (!dim.keys.empty())
            return false;
    return true;
}

std::string
stripInstance(const std::string &stat_name)
{
    std::size_t dot = stat_name.find('.');
    if (dot == std::string::npos)
        return stat_name;
    return stat_name.substr(dot + 1);
}

} // namespace wo
