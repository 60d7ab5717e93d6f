#include "litmus/expect.hh"

#include <charconv>
#include <tuple>

#include "system/system.hh"

namespace wo {
namespace litmus_dsl {

namespace {

Word
regValue(const RunResult &r, int proc, int reg)
{
    if (proc < 0 || proc >= static_cast<int>(r.registers.size()))
        return 0;
    const std::vector<Word> &regs =
        r.registers[static_cast<std::size_t>(proc)];
    if (reg < 0 || reg >= static_cast<int>(regs.size()))
        return 0;
    return regs[static_cast<std::size_t>(reg)];
}

Word
memValue(const RunResult &r, const std::map<std::string, Addr> &addrOf,
         const std::string &loc)
{
    auto ait = addrOf.find(loc);
    if (ait == addrOf.end())
        return 0;
    auto mit = r.finalMemory.find(ait->second);
    return mit == r.finalMemory.end() ? 0 : mit->second;
}

/** Append "label=value", the one rendering of an outcome-key term. */
void
appendTerm(std::string &out, const std::string &label, Word value)
{
    char digits[24];
    const auto end =
        std::to_chars(digits, digits + sizeof digits, value).ptr;
    out += label;
    out += '=';
    out.append(digits, end);
}

ObservedVar
termVar(const Cond &c)
{
    ObservedVar v;
    if (c.kind == Cond::Kind::RegTerm) {
        v.isReg = true;
        v.proc = c.proc;
        v.reg = c.reg;
    } else {
        v.isReg = false;
        v.loc = c.loc;
    }
    return v;
}

void
collectVars(const Cond &c, std::vector<ObservedVar> &out)
{
    switch (c.kind) {
      case Cond::Kind::And:
      case Cond::Kind::Or:
      case Cond::Kind::Not:
        for (const Cond &k : c.kids)
            collectVars(k, out);
        break;
      case Cond::Kind::RegTerm:
      case Cond::Kind::MemTerm: {
        ObservedVar v = termVar(c);
        for (const ObservedVar &seen : out) {
            if (seen == v)
                return;
        }
        out.push_back(std::move(v));
        break;
      }
    }
}

} // namespace

bool
evalCond(const Cond &c, const RunResult &r,
         const std::map<std::string, Addr> &addrOf)
{
    switch (c.kind) {
      case Cond::Kind::And:
        for (const Cond &k : c.kids) {
            if (!evalCond(k, r, addrOf))
                return false;
        }
        return true;
      case Cond::Kind::Or:
        for (const Cond &k : c.kids) {
            if (evalCond(k, r, addrOf))
                return true;
        }
        return false;
      case Cond::Kind::Not:
        return !evalCond(c.kids.at(0), r, addrOf);
      case Cond::Kind::RegTerm: {
        Word v = regValue(r, c.proc, c.reg);
        return c.op == CmpOp::Eq ? v == c.value : v != c.value;
      }
      case Cond::Kind::MemTerm: {
        Word v = memValue(r, addrOf, c.loc);
        return c.op == CmpOp::Eq ? v == c.value : v != c.value;
      }
    }
    return false;
}

bool
ObservedVar::operator<(const ObservedVar &o) const
{
    return std::tie(isReg, proc, reg, loc) <
           std::tie(o.isReg, o.proc, o.reg, o.loc);
}

bool
ObservedVar::operator==(const ObservedVar &o) const
{
    return isReg == o.isReg && proc == o.proc && reg == o.reg &&
           loc == o.loc;
}

std::string
ObservedVar::toString() const
{
    if (isReg)
        return "P" + std::to_string(proc) + ":r" + std::to_string(reg);
    return loc;
}

std::vector<ObservedVar>
observedVars(const Cond &c)
{
    std::vector<ObservedVar> out;
    collectVars(c, out);
    return out;
}

std::string
outcomeKey(const std::vector<ObservedVar> &vars, const RunResult &r,
           const std::map<std::string, Addr> &addrOf)
{
    std::string key;
    for (std::size_t i = 0; i < vars.size(); ++i) {
        if (i)
            key += ' ';
        const ObservedVar &v = vars[i];
        appendTerm(key, v.toString(),
                   v.isReg ? regValue(r, v.proc, v.reg)
                           : memValue(r, addrOf, v.loc));
    }
    return key;
}

ClauseVars::ClauseVars(const Cond &cond,
                       const std::map<std::string, Addr> &addrOf)
    : vars_(observedVars(cond))
{
    for (const ObservedVar &v : vars_) {
        Var r;
        r.isReg = v.isReg;
        r.proc = v.proc;
        r.reg = v.reg;
        if (!v.isReg) {
            auto it = addrOf.find(v.loc);
            r.known = it != addrOf.end();
            r.addr = r.known ? it->second : 0;
        }
        r.label = v.toString();
        resolved_.push_back(std::move(r));
    }
    flatten(cond);
}

void
ClauseVars::flatten(const Cond &c)
{
    const auto self = static_cast<int>(nodes_.size());
    Node n;
    n.kind = c.kind;
    n.op = c.op;
    n.value = c.value;
    if (c.kind == Cond::Kind::RegTerm || c.kind == Cond::Kind::MemTerm) {
        const ObservedVar v = termVar(c);
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            if (vars_[i] == v)
                n.var = static_cast<int>(i);
        }
    }
    nodes_.push_back(n);
    for (const Cond &k : c.kids)
        flatten(k);
    nodes_[static_cast<std::size_t>(self)].end =
        static_cast<int>(nodes_.size());
}

Word
ClauseVars::valueOf(const System &sys, const Var &v) const
{
    if (v.isReg)
        return sys.registerValue(v.proc, v.reg);
    return v.known ? sys.finalValue(v.addr) : 0;
}

bool
ClauseVars::eval(const System &sys, int node) const
{
    const Node &n = nodes_[static_cast<std::size_t>(node)];
    switch (n.kind) {
      case Cond::Kind::And:
        for (int k = node + 1; k < n.end;
             k = nodes_[static_cast<std::size_t>(k)].end) {
            if (!eval(sys, k))
                return false;
        }
        return true;
      case Cond::Kind::Or:
        for (int k = node + 1; k < n.end;
             k = nodes_[static_cast<std::size_t>(k)].end) {
            if (eval(sys, k))
                return true;
        }
        return false;
      case Cond::Kind::Not:
        return !eval(sys, node + 1);
      case Cond::Kind::RegTerm:
      case Cond::Kind::MemTerm: {
        Word v = valueOf(sys, resolved_[static_cast<std::size_t>(n.var)]);
        return n.op == CmpOp::Eq ? v == n.value : v != n.value;
      }
    }
    return false;
}

bool
ClauseVars::holds(const System &sys) const
{
    return !nodes_.empty() && eval(sys, 0);
}

void
ClauseVars::appendKey(const System &sys, std::string &out) const
{
    for (std::size_t i = 0; i < resolved_.size(); ++i) {
        if (i)
            out += ' ';
        appendTerm(out, resolved_[i].label, valueOf(sys, resolved_[i]));
    }
}

} // namespace litmus_dsl
} // namespace wo
