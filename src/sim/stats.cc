#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>
#include <stdexcept>

#include "sim/json.hh"

namespace wo {

StatHandle
StatSet::handle(const std::string &name, Kind kind)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        if (kind == Kind::Max)
            slots_[it->second].kind = Kind::Max;
        return StatHandle(it->second);
    }
    std::uint32_t idx = static_cast<std::uint32_t>(slots_.size());
    Slot slot;
    slot.name = name;
    slot.kind = kind;
    slots_.push_back(std::move(slot));
    index_.emplace(name, idx);
    return StatHandle(idx);
}

void
StatSet::set(const std::string &name, std::uint64_t value)
{
    set(handle(name), value);
}

const StatSet::Slot *
StatSet::find(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        return nullptr;
    const Slot &s = slots_[it->second];
    return s.touched ? &s : nullptr;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    const Slot *s = find(name);
    return s ? s->value : 0;
}

bool
StatSet::has(const std::string &name) const
{
    return find(name) != nullptr;
}

void
StatSet::combine(Slot &mine, const Slot &theirs)
{
    if (mine.kind == Kind::Max) {
        if (!mine.touched || mine.value < theirs.value)
            mine.value = theirs.value;
    } else {
        mine.value += theirs.value;
    }
    mine.touched = true;
}

void
StatSet::merge(const StatSet &other)
{
    for (const Slot &theirs : other.slots_) {
        if (theirs.touched)
            combine(slots_[handle(theirs.name, theirs.kind).idx_], theirs);
    }
    dirty_ = true;
}

void
StatSet::accumulate(const StatSet &run)
{
    const std::size_t shared = slots_.size();
    if (run.slots_.size() < shared ||
        (shared > 0 && run.slots_[shared - 1].name != slots_.back().name)) {
        throw std::logic_error(
            "StatSet::accumulate: run does not extend this total's slots");
    }
    for (std::size_t i = shared; i < run.slots_.size(); ++i) {
        Slot slot;
        slot.name = run.slots_[i].name;
        slot.kind = run.slots_[i].kind;
        index_.emplace(slot.name, static_cast<std::uint32_t>(i));
        slots_.push_back(std::move(slot));
    }
    for (std::size_t i = 0; i < run.slots_.size(); ++i) {
        const Slot &theirs = run.slots_[i];
        if (!theirs.touched)
            continue;
        Slot &mine = slots_[i];
        if (theirs.kind == Kind::Max)
            mine.kind = Kind::Max;
        combine(mine, theirs);
    }
    dirty_ = true;
}

void
StatSet::clear()
{
    slots_.clear();
    index_.clear();
    values_.clear();
    dirty_ = false;
}

void
StatSet::reset()
{
    for (Slot &s : slots_) {
        s.value = 0;
        s.touched = false;
    }
    values_.clear();
    dirty_ = false;
}

void
StatSet::syncValues() const
{
    if (!dirty_)
        return;
    values_.clear();
    for (const Slot &s : slots_) {
        if (s.touched)
            values_[s.name] = s.value;
    }
    dirty_ = false;
}

void
StatSet::dump(std::ostream &os, const std::string &prefix_filter) const
{
    syncValues();
    std::size_t width = 0;
    for (const auto &[k, v] : values_) {
        if (k.rfind(prefix_filter, 0) == 0)
            width = std::max(width, k.size());
    }
    for (const auto &[k, v] : values_) {
        if (k.rfind(prefix_filter, 0) == 0) {
            os << std::left << std::setw(static_cast<int>(width) + 2) << k
               << v << '\n';
        }
    }
}

void
StatSet::dumpJson(std::ostream &os, const std::string &prefix_filter,
                  int indent) const
{
    syncValues();
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    bool any = false;
    os << "{";
    for (const auto &[k, v] : values_) {
        if (k.rfind(prefix_filter, 0) != 0)
            continue;
        os << (any ? ",\n" : "\n") << pad << "  \"" << jsonEscape(k)
           << "\": " << v;
        any = true;
    }
    if (any)
        os << "\n" << pad;
    os << "}";
}

} // namespace wo
