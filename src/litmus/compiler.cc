#include "litmus/compiler.hh"

#include <set>

#include "cpu/program_builder.hh"

namespace wo {
namespace litmus_dsl {

namespace {

/** Max register index the DSL accepts (matches workload scale). */
constexpr int kMaxReg = 63;

void
checkReg(const std::string &file, int line, int r)
{
    if (r < 0 || r > kMaxReg) {
        throw LitmusError(file, line,
                          "register r" + std::to_string(r) +
                              " out of range (0..." +
                              std::to_string(kMaxReg) + ")");
    }
}

struct LocInfo
{
    Addr addr;
    bool sync;
};

void
validateCond(const Cond &c, const LitmusTest &t,
             const std::map<std::string, LocInfo> &locs, int num_procs)
{
    switch (c.kind) {
      case Cond::Kind::And:
      case Cond::Kind::Or:
      case Cond::Kind::Not:
        for (const Cond &k : c.kids)
            validateCond(k, t, locs, num_procs);
        break;
      case Cond::Kind::RegTerm:
        if (c.proc < 0 || c.proc >= num_procs) {
            throw LitmusError(t.file, c.line ? c.line : t.clause.line,
                              "clause names P" + std::to_string(c.proc) +
                                  " but the test has " +
                                  std::to_string(num_procs) +
                                  " processors");
        }
        checkReg(t.file, c.line ? c.line : t.clause.line, c.reg);
        break;
      case Cond::Kind::MemTerm:
        if (!locs.count(c.loc)) {
            throw LitmusError(t.file, c.line ? c.line : t.clause.line,
                              "clause names undeclared location '" +
                                  c.loc + "'");
        }
        break;
    }
}

} // namespace

CompiledLitmus
compileLitmus(const LitmusTest &t)
{
    CompiledLitmus out;
    out.name = t.name;
    out.file = t.file;
    out.clause = t.clause;
    out.program.setName(t.name);

    // Intern locations: data first, then sync (the repo-wide litmus
    // address-map convention).
    std::map<std::string, LocInfo> locs;
    for (const InitEntry &e : t.inits) {
        if (!e.sync) {
            LocInfo info{static_cast<Addr>(out.dataLocs.size()), false};
            locs.emplace(e.loc, info);
            out.dataLocs.push_back(e.loc);
        }
    }
    for (const InitEntry &e : t.inits) {
        if (e.sync) {
            LocInfo info{static_cast<Addr>(out.dataLocs.size() +
                                           out.syncLocs.size()),
                         true};
            locs.emplace(e.loc, info);
            out.syncLocs.push_back(e.loc);
        }
    }
    for (const auto &[name, info] : locs)
        out.addrOf[name] = info.addr;

    auto resolve = [&](const Stmt &s, bool need_sync) -> Addr {
        auto it = locs.find(s.loc);
        if (it == locs.end()) {
            throw LitmusError(t.file, s.line,
                              "undeclared location '" + s.loc +
                                  "' (declare it in the init section)");
        }
        if (need_sync && !it->second.sync) {
            throw LitmusError(t.file, s.line,
                              "'" + s.mnemonic +
                                  "' is a synchronization operation but "
                                  "'" +
                                  s.loc +
                                  "' is not declared sync");
        }
        return it->second.addr;
    };

    if (t.procs.empty())
        throw LitmusError(t.file, 1, "test declares no processors");

    for (std::size_t p = 0; p < t.procs.size(); ++p) {
        ProgramBuilder b;
        bool halted = false;
        std::set<std::string> labels;
        for (const Stmt &s : t.procs[p]) {
            if (!s.label.empty()) {
                if (!labels.insert(s.label).second) {
                    throw LitmusError(t.file, s.line,
                                      "duplicate label '" + s.label +
                                          "' in P" + std::to_string(p));
                }
                b.label(s.label);
            }
            if (s.mnemonic.empty())
                continue;
            if (s.reg >= 0)
                checkReg(t.file, s.line, s.reg);
            if (s.reg2 >= 0)
                checkReg(t.file, s.line, s.reg2);
            halted = false;
            if (s.mnemonic == "load") {
                b.load(s.reg, resolve(s, false));
            } else if (s.mnemonic == "store") {
                if (s.reg2 >= 0)
                    b.storeReg(resolve(s, false), s.reg2);
                else
                    b.store(resolve(s, false), s.imm);
            } else if (s.mnemonic == "test") {
                b.test(s.reg, resolve(s, true));
            } else if (s.mnemonic == "unset") {
                if (s.reg2 >= 0)
                    b.unsetReg(resolve(s, true), s.reg2);
                else
                    b.unset(resolve(s, true), s.imm);
            } else if (s.mnemonic == "tas") {
                b.tas(s.reg, resolve(s, true), s.imm);
            } else if (s.mnemonic == "movi") {
                b.movi(s.reg, s.imm);
            } else if (s.mnemonic == "addi") {
                b.addi(s.reg, s.reg2, s.imm);
            } else if (s.mnemonic == "beq") {
                b.beq(s.reg, s.imm, s.target);
            } else if (s.mnemonic == "bne") {
                b.bne(s.reg, s.imm, s.target);
            } else if (s.mnemonic == "fence") {
                b.fence();
            } else if (s.mnemonic == "nop") {
                b.nop(s.count);
            } else if (s.mnemonic == "halt") {
                b.halt();
                halted = true;
            } else {
                throw LitmusError(t.file, s.line,
                                  "unknown mnemonic '" + s.mnemonic +
                                      "'");
            }
        }
        if (!halted)
            b.halt(); // implicit trailing halt, like falling off main()
        try {
            out.program.addProgram(b.build());
        } catch (const std::invalid_argument &e) {
            int line =
                t.procs[p].empty() ? 1 : t.procs[p].front().line;
            throw LitmusError(t.file, line,
                              "P" + std::to_string(p) + ": " + e.what());
        }
    }

    for (const InitEntry &e : t.inits) {
        if (e.value != 0)
            out.program.setInitial(locs.at(e.loc).addr, e.value);
    }

    validateCond(t.clause.cond, t, locs,
                 static_cast<int>(t.procs.size()));
    return out;
}

CompiledLitmus
compileLitmusFile(const std::string &path)
{
    return compileLitmus(parseLitmusFile(path));
}

RunResult
clauseOutcome(const CompiledLitmus &test, RunResult r)
{
    for (const auto &[loc, addr] : test.addrOf) {
        if (!r.finalMemory.count(addr))
            r.finalMemory[addr] = test.program.initialValue(addr);
    }
    return r;
}

} // namespace litmus_dsl
} // namespace wo
