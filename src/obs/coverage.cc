#include "obs/coverage.hh"

namespace wo {

const char *
toString(LatencyKind k)
{
    switch (k) {
      case LatencyKind::IssueGp: return "lat_issue_gp";
      case LatencyKind::Msg: return "lat_msg";
    }
    return "?";
}

void
CoverageMap::merge(const CoverageMap &other)
{
    for (int k = 0; k < kNumProtocolKinds; ++k)
        for (int s = 0; s < kNumLineStates; ++s)
            for (int e = 0; e < kNumLineEvents; ++e)
                trans_[k][s][e] += other.trans_[k][s][e];
    for (int r = 0; r < kNumStallReasons; ++r)
        stalls_[r] += other.stalls_[r];
    for (int m = 0; m < kNumMissStalls; ++m)
        miss_stalls_[m] += other.miss_stalls_[m];
    for (int k = 0; k < kNumLatencyKinds; ++k)
        for (int b = 0; b < kLatencyBuckets; ++b)
            buckets_[k][b] += other.buckets_[k][b];
}

} // namespace wo
