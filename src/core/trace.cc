#include "core/trace.hh"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace wo {

namespace {
const std::vector<int> kNoIds;

/** Erase every id below @p firstLive from an ascending id list. Returns
 * true if anything was removed. */
bool
prunePrefix(std::vector<int> &ids, int firstLive)
{
    auto cut = std::lower_bound(ids.begin(), ids.end(), firstLive);
    if (cut == ids.begin())
        return false;
    ids.erase(ids.begin(), cut);
    return true;
}
} // namespace

int
ExecutionTrace::add(Access a)
{
    a.id = size();
    if (a.proc >= nprocs_)
        nprocs_ = a.proc + 1;
    accesses_.push_back(a);
    high_water_ = std::max(high_water_, resident());
    return a.id;
}

void
ExecutionTrace::reserve(int n)
{
    accesses_.reserve(static_cast<std::size_t>(n));
}

void
ExecutionTrace::throwNotResident(int id) const
{
    throw std::out_of_range("trace id " + std::to_string(id) +
                            " is not resident in [" + std::to_string(base_) +
                            ", " + std::to_string(size()) + ")");
}

void
ExecutionTrace::catchUp() const
{
    if (byProc_.size() < static_cast<std::size_t>(nprocs_))
        byProc_.resize(static_cast<std::size_t>(nprocs_));
    for (; indexed_ < size(); ++indexed_) {
        const Access &a = live(indexed_);
        if (a.proc >= 0) {
            IndexList &pi = byProc_[static_cast<std::size_t>(a.proc)];
            pi.ids.push_back(a.id);
            pi.dirty = true;
        }
        if (a.sync()) {
            IndexList &si = syncs_[a.addr];
            si.ids.push_back(a.id);
            si.dirty = true;
        }
    }
}

void
ExecutionTrace::popLast()
{
    if (resident() == 0)
        throw std::logic_error("ExecutionTrace::popLast on an empty window");
    catchUp();
    const Access &a = accesses_.back();
    if (a.proc >= 0) {
        IndexList &pi = byProc_[static_cast<std::size_t>(a.proc)];
        pi.ids.pop_back();
        pi.dirty = true;
    }
    if (a.sync()) {
        auto it = syncs_.find(a.addr);
        it->second.ids.pop_back();
        if (it->second.ids.empty())
            syncs_.erase(it);
        else
            it->second.dirty = true;
    }
    accesses_.pop_back();
    --indexed_;
    // Keep numProcs() == highest present processor + 1.
    while (!byProc_.empty() && byProc_.back().ids.empty())
        byProc_.pop_back();
    nprocs_ = static_cast<int>(byProc_.size());
}

void
ExecutionTrace::popFront(int n)
{
    if (n < 0 || n > resident())
        throw std::logic_error("ExecutionTrace::popFront(" +
                               std::to_string(n) + ") outside [0, " +
                               std::to_string(resident()) + "]");
    if (n == 0)
        return;
    base_ += n;
    dead_ += n;
    // Move the survivors down only once the dead prefix reaches a quarter
    // of the live window, so each retired access costs O(1) moves.
    if (4 * static_cast<std::int64_t>(dead_) >= resident()) {
        accesses_.erase(accesses_.begin(), accesses_.begin() + dead_);
        dead_ = 0;
    }
    // Accesses retired before any query indexed them are never indexed.
    indexed_ = std::max(indexed_, base_);
    // The append-order id lists are ascending, so retirement is a prefix
    // erase; the sorted views are rebuilt lazily on next query.
    for (IndexList &pi : byProc_) {
        if (prunePrefix(pi.ids, base_))
            pi.dirty = true;
    }
    for (auto it = syncs_.begin(); it != syncs_.end();) {
        if (prunePrefix(it->second.ids, base_))
            it->second.dirty = true;
        if (it->second.ids.empty())
            it = syncs_.erase(it);
        else
            ++it;
    }
}

void
ExecutionTrace::clear()
{
    accesses_.clear();
    initials_.clear();
    byProc_.clear();
    syncs_.clear();
    indexed_ = 0;
    base_ = 0;
    dead_ = 0;
    nprocs_ = 0;
    high_water_ = 0;
}

const std::vector<int> &
ExecutionTrace::accessesOf(ProcId proc) const
{
    if (proc < 0 || proc >= nprocs_)
        return kNoIds;
    catchUp();
    IndexList &pi = byProc_[static_cast<std::size_t>(proc)];
    if (pi.dirty) {
        pi.sorted = pi.ids;
        auto lt = [this](int x, int y) {
            const Access &ax = live(x);
            const Access &ay = live(y);
            if (ax.poIndex != ay.poIndex)
                return ax.poIndex < ay.poIndex;
            return x < y;
        };
        if (!std::is_sorted(pi.sorted.begin(), pi.sorted.end(), lt))
            std::sort(pi.sorted.begin(), pi.sorted.end(), lt);
        pi.dirty = false;
    }
    return pi.sorted;
}

const std::vector<int> &
ExecutionTrace::syncsAt(Addr addr) const
{
    catchUp();
    auto it = syncs_.find(addr);
    if (it == syncs_.end())
        return kNoIds;
    IndexList &si = it->second;
    if (si.dirty) {
        si.sorted = si.ids;
        auto lt = [this](int x, int y) {
            const Access &ax = live(x);
            const Access &ay = live(y);
            if (ax.commitTick != ay.commitTick)
                return ax.commitTick < ay.commitTick;
            return x < y;
        };
        if (!std::is_sorted(si.sorted.begin(), si.sorted.end(), lt))
            std::sort(si.sorted.begin(), si.sorted.end(), lt);
        si.dirty = false;
    }
    return si.sorted;
}

std::vector<Addr>
ExecutionTrace::addrs() const
{
    std::set<Addr> s;
    for (const Access &a : accesses())
        s.insert(a.addr);
    return {s.begin(), s.end()};
}

std::vector<Addr>
ExecutionTrace::syncAddrs() const
{
    catchUp();
    std::vector<Addr> out;
    out.reserve(syncs_.size());
    for (const auto &[addr, ids] : syncs_)
        out.push_back(addr);
    return out;
}

void
ExecutionTrace::setInitial(Addr addr, Word value)
{
    // Callers set initials in ascending address order (a System walks
    // its sorted touched list), so the common case appends.
    auto it = std::lower_bound(
        initials_.begin(), initials_.end(), addr,
        [](const std::pair<Addr, Word> &e, Addr a) { return e.first < a; });
    if (it != initials_.end() && it->first == addr)
        it->second = value;
    else
        initials_.insert(it, {addr, value});
}

Word
ExecutionTrace::initialValue(Addr addr) const
{
    auto it = std::lower_bound(
        initials_.begin(), initials_.end(), addr,
        [](const std::pair<Addr, Word> &e, Addr a) { return e.first < a; });
    return it != initials_.end() && it->first == addr ? it->second : 0;
}

std::string
ExecutionTrace::toString() const
{
    std::ostringstream oss;
    for (const Access &a : accesses())
        oss << "  #" << a.id << " " << a.toString() << '\n';
    return oss.str();
}

std::string
RunResult::toString() const
{
    std::ostringstream oss;
    oss << "mem{";
    bool first = true;
    for (const auto &[a, v] : finalMemory) {
        if (!first)
            oss << ",";
        first = false;
        oss << "[" << a << "]=" << v;
    }
    oss << "} regs{";
    for (std::size_t p = 0; p < registers.size(); ++p) {
        if (p)
            oss << ";";
        oss << "P" << p << ":";
        for (std::size_t r = 0; r < registers[p].size(); ++r) {
            if (r)
                oss << ",";
            oss << registers[p][r];
        }
    }
    oss << "}" << (allHalted ? "" : " (not halted)");
    return oss.str();
}

} // namespace wo
