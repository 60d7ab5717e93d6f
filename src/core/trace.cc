#include "core/trace.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace wo {

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
ExecutionTrace::popLast()
{
    if (resident() == 0)
        throw std::logic_error("ExecutionTrace::popLast on an empty window");
    const ProcId popped = accesses_.back().proc;
    accesses_.pop_back();
    // Keep numProcs() == highest resident processor + 1. Only popping
    // the top processor's access, or a retirement since clear(), can
    // leave the top processor absent. Newest-first, the scan usually
    // meets the top processor within a few accesses.
    if (popped != nprocs_ - 1 && base_ == 0)
        return;
    const int top = nprocs_ - 1;
    int highest = -1;
    for (auto it = accesses_.rbegin(); it != accesses_.rend() - dead_; ++it) {
        highest = std::max(highest, it->proc);
        if (highest == top)
            break;
    }
    nprocs_ = highest + 1;
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
}

void
ExecutionTrace::clear()
{
    accesses_.clear();
    initials_.clear();
    base_ = 0;
    dead_ = 0;
    nprocs_ = 0;
    high_water_ = 0;
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
