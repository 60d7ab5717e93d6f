#include "cpu/program.hh"

#include <algorithm>
#include <sstream>

namespace wo {

int
Program::maxRegister() const
{
    int m = -1;
    for (const auto &i : code_) {
        m = std::max(m, i.dst);
        m = std::max(m, i.src);
    }
    return m;
}

namespace {

/**
 * Distinct addresses as a sorted vector, built in a caller's vector
 * (whose storage is reused). Duplicates are squeezed out whenever the
 * unsorted tail outgrows the distinct prefix, so memory stays
 * O(distinct addresses) even for a program of millions of memory
 * instructions (a replayed trace).
 */
class AddrSet
{
  public:
    explicit AddrSet(std::vector<Addr> &out) : v_(out) { v_.clear(); }

    void
    add(Addr a)
    {
        v_.push_back(a);
        if (v_.size() >= 2 * distinct_ + 64)
            compact();
    }

    void
    compact()
    {
        std::sort(v_.begin(), v_.end());
        v_.erase(std::unique(v_.begin(), v_.end()), v_.end());
        distinct_ = v_.size();
    }

  private:
    std::vector<Addr> &v_;
    std::size_t distinct_ = 0;
};

void
addMemOps(const Program &p, AddrSet &out)
{
    for (const auto &i : p.code()) {
        if (i.isMemOp())
            out.add(i.addr);
    }
}

} // namespace

std::vector<Addr>
Program::touchedAddrs() const
{
    std::vector<Addr> out;
    AddrSet s(out);
    addMemOps(*this, s);
    s.compact();
    return out;
}

std::string
Program::toString() const
{
    std::ostringstream oss;
    for (int pc = 0; pc < size(); ++pc)
        oss << "  " << pc << ": " << code_[pc].toString() << '\n';
    return oss.str();
}

ProcId
MultiProgram::addProgram(Program p)
{
    programs_.push_back(std::move(p));
    return static_cast<ProcId>(programs_.size()) - 1;
}

Word
MultiProgram::initialValue(Addr addr) const
{
    for (const auto &[a, v] : initials_) {
        if (a == addr)
            return v;
    }
    return 0;
}

void
MultiProgram::setInitial(Addr addr, Word value)
{
    for (auto &[a, v] : initials_) {
        if (a == addr) {
            v = value;
            return;
        }
    }
    initials_.emplace_back(addr, value);
}

int
MultiProgram::numRegisters() const
{
    int m = 0;
    for (const auto &p : programs_)
        m = std::max(m, p.maxRegister() + 1);
    return std::max(m, 1);
}

std::uint64_t
MultiProgram::contentHash() const
{
    // splitmix64-mix every field; positions are implicit in the running
    // state, so permuted programs hash differently.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    auto mix = [&h](std::uint64_t v) {
        h += v + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
    };
    mix(static_cast<std::uint64_t>(programs_.size()));
    for (const Program &p : programs_) {
        mix(static_cast<std::uint64_t>(p.size()));
        for (const Instruction &i : p.code()) {
            mix(static_cast<std::uint64_t>(i.op));
            mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(i.dst)));
            mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(i.src)));
            mix(i.imm);
            mix(i.addr);
            mix(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(i.target)));
        }
    }
    std::vector<std::pair<Addr, Word>> inits = initials_;
    std::sort(inits.begin(), inits.end());
    for (const auto &[a, v] : inits) {
        mix(a);
        mix(v);
    }
    return h;
}

std::vector<Addr>
MultiProgram::touchedAddrs() const
{
    std::vector<Addr> out;
    touchedAddrs(out);
    return out;
}

void
MultiProgram::touchedAddrs(std::vector<Addr> &out) const
{
    AddrSet s(out);
    for (const auto &p : programs_)
        addMemOps(p, s);
    for (const auto &[a, v] : initials_)
        s.add(a);
    s.compact();
}

std::string
MultiProgram::toString() const
{
    std::ostringstream oss;
    oss << "workload: " << name_ << '\n';
    for (int p = 0; p < numProcs(); ++p) {
        oss << "P" << p << ":\n" << programs_[p].toString();
    }
    return oss.str();
}

} // namespace wo
