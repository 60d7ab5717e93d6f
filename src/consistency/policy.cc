#include "consistency/policy.hh"

namespace wo {

static_assert(
    [] {
        for (int i = 0; i < kNumPolicyKinds; ++i) {
            if (static_cast<int>(kPolicies[i].kind) != i)
                return false;
        }
        return true;
    }(),
    "kPolicies rows must follow PolicyKind order");

const char *
toString(StallReason r)
{
    switch (r) {
      case StallReason::CounterNonzero: return "counter_nonzero";
      case StallReason::ReserveBit: return "reserve_bit";
      case StallReason::BufferFull: return "buffer_full";
      case StallReason::Fence: return "fence";
      case StallReason::Dependency: return "dependency";
      case StallReason::SameAddr: return "same_addr";
    }
    return "?";
}

std::string
toString(PolicyKind k)
{
    return policyOf(k).name;
}

std::optional<PolicyKind>
parsePolicyKind(const std::string &name)
{
    for (const ConsistencyPolicy &p : kPolicies) {
        if (name == p.cli)
            return p.kind;
    }
    return std::nullopt;
}

const char *
cliName(PolicyKind k)
{
    return policyOf(k).cli;
}

} // namespace wo
