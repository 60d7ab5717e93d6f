#include "consistency/policy.hh"

#include <stdexcept>
#include <utility>

#include "consistency/def1_policy.hh"
#include "consistency/def2_drf0_policy.hh"
#include "consistency/def2_drf1_policy.hh"
#include "consistency/relaxed_policy.hh"
#include "consistency/sc_policy.hh"

namespace wo {

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
    switch (k) {
      case PolicyKind::Sc: return "SC";
      case PolicyKind::Def1: return "WO-Def1";
      case PolicyKind::Def2Drf0: return "WO-Def2-DRF0";
      case PolicyKind::Def2Drf1: return "WO-Def2-DRF1";
      case PolicyKind::Relaxed: return "Relaxed";
    }
    return "?";
}

namespace {

/** Command-line names, read in both directions. */
constexpr std::pair<PolicyKind, const char *> kCliNames[] = {
    {PolicyKind::Sc, "sc"},
    {PolicyKind::Def1, "def1"},
    {PolicyKind::Def2Drf0, "def2drf0"},
    {PolicyKind::Def2Drf1, "def2drf1"},
    {PolicyKind::Relaxed, "relaxed"},
};

} // namespace

std::optional<PolicyKind>
parsePolicyKind(const std::string &name)
{
    for (const auto &[kind, cli] : kCliNames) {
        if (name == cli)
            return kind;
    }
    return std::nullopt;
}

const char *
cliName(PolicyKind k)
{
    for (const auto &[kind, cli] : kCliNames) {
        if (kind == k)
            return cli;
    }
    return "?";
}

std::unique_ptr<ConsistencyPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Sc:
        return std::make_unique<ScPolicy>();
      case PolicyKind::Def1:
        return std::make_unique<Def1Policy>();
      case PolicyKind::Def2Drf0:
        return std::make_unique<Def2Drf0Policy>();
      case PolicyKind::Def2Drf1:
        return std::make_unique<Def2Drf1Policy>();
      case PolicyKind::Relaxed:
        return std::make_unique<RelaxedPolicy>();
    }
    throw std::invalid_argument("unknown policy kind");
}

} // namespace wo
