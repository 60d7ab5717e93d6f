#include "obs/latency_histogram.hh"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace wo {

void
LatencyHistogram::internHandles()
{
    for (int i = 0; i < kBuckets; ++i) {
        std::string name = prefix_ + ".bucket_";
        if (i < 10)
            name += '0';
        name += std::to_string(i);
        bucket_handles_[i] = stats_.handle(name);
    }
    count_handle_ = stats_.handle(prefix_ + ".count");
    total_handle_ = stats_.handle(prefix_ + ".total");
    max_handle_ = stats_.handle(prefix_ + ".max", StatSet::Kind::Max);
    interned_ = true;
}

void
LatencyHistogram::record(Tick v)
{
    if (!interned_)
        internHandles();
    int b = bucketIndex(v);
    ++counts_[b];
    ++count_;
    total_ += v;
    if (v > max_)
        max_ = v;
    stats_.inc(bucket_handles_[b]);
    stats_.inc(count_handle_);
    stats_.inc(total_handle_, v);
    stats_.maxOf(max_handle_, v);
    if (CoverageMap *cov = activeCoverage())
        cov->hitBucket(kind_, b);
}

void
LatencyHistogram::render(std::ostream &os, int indent) const
{
    std::string pad(indent, ' ');
    os << pad << prefix_ << ": " << count_ << " samples";
    if (count_ > 0) {
        os << ", mean " << total_ / count_ << ", max " << max_;
    }
    os << "\n";
    if (count_ == 0)
        return;
    std::uint64_t peak = 0;
    for (std::uint64_t c : counts_)
        peak = std::max(peak, c);
    for (int i = 0; i < kBuckets; ++i) {
        if (counts_[i] == 0)
            continue;
        std::ostringstream range_oss;
        if (i >= kBuckets - 1)
            range_oss << ">=" << bucketLow(i);
        else if (bucketLow(i) == bucketHigh(i))
            range_oss << bucketLow(i);
        else
            range_oss << bucketLow(i) << ".." << bucketHigh(i);
        int bar = peak ? static_cast<int>(counts_[i] * 40 / peak) : 0;
        os << pad << "  " << std::setw(22) << range_oss.str() << " "
           << std::setw(8) << counts_[i] << " " << std::string(bar, '#')
           << "\n";
    }
}

} // namespace wo
