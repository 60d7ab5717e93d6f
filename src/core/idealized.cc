#include "core/idealized.hh"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace wo {

IdealizedMachine::IdealizedMachine(const MultiProgram &program)
    : program_(program)
{
    int n = program.numProcs();
    pcs_.assign(n, 0);
    regs_.assign(n, std::vector<Word>(program.numRegisters(), 0));
    halted_.assign(n, false);
    poIndex_.assign(n, 0);
    // Static instruction count is a sound lower bound on the dynamic
    // access count; reserving it up front keeps straight-line recording
    // free of reallocation (loops still grow geometrically).
    int static_insns = 0;
    for (ProcId p = 0; p < n; ++p)
        static_insns += program.program(p).size();
    trace_.reserve(std::min(static_insns, 4096));
    touched_ = program.touchedAddrs();
    for (Addr a : touched_) {
        Word init = program.initialValue(a);
        memory_[a] = init;
        trace_.setInitial(a, init);
    }
    // A processor with an empty program is immediately halted.
    for (ProcId p = 0; p < n; ++p) {
        if (program.program(p).size() == 0)
            halted_[p] = true;
    }
}

bool
IdealizedMachine::allHalted() const
{
    for (bool h : halted_) {
        if (!h)
            return false;
    }
    return true;
}

Word
IdealizedMachine::memory(Addr a) const
{
    auto it = memory_.find(a);
    return it == memory_.end() ? 0 : it->second;
}

bool
IdealizedMachine::step(ProcId p)
{
    if (halted_[p])
        return false;
    const Instruction &insn = program_.program(p).at(pcs_[p]);

    UndoRecord u;
    u.proc = p;
    u.oldPc = pcs_[p];
    u.oldPoIndex = poIndex_[p];

    int next_pc = pcs_[p] + 1;
    switch (insn.op) {
      case Opcode::Load:
      case Opcode::SyncRead: {
        Word v = memory_[insn.addr];
        u.reg = insn.dst;
        u.oldReg = regs_[p][insn.dst];
        regs_[p][insn.dst] = v;
        Access a;
        a.proc = p;
        a.poIndex = poIndex_[p]++;
        a.kind = insn.accessKind();
        a.addr = insn.addr;
        a.valueRead = v;
        a.commitTick = steps_;
        a.gpTick = steps_;
        trace_.add(a);
        u.recordedAccess = true;
        break;
      }
      case Opcode::Store:
      case Opcode::SyncWrite: {
        Word v = insn.src >= 0 ? regs_[p][insn.src] : insn.imm;
        u.memChanged = true;
        u.addr = insn.addr;
        u.oldMem = memory_[insn.addr];
        memory_[insn.addr] = v;
        Access a;
        a.proc = p;
        a.poIndex = poIndex_[p]++;
        a.kind = insn.accessKind();
        a.addr = insn.addr;
        a.valueWritten = v;
        a.commitTick = steps_;
        a.gpTick = steps_;
        trace_.add(a);
        u.recordedAccess = true;
        break;
      }
      case Opcode::TestAndSet: {
        Word old = memory_[insn.addr];
        u.reg = insn.dst;
        u.oldReg = regs_[p][insn.dst];
        u.memChanged = true;
        u.addr = insn.addr;
        u.oldMem = old;
        regs_[p][insn.dst] = old;
        memory_[insn.addr] = insn.imm;
        Access a;
        a.proc = p;
        a.poIndex = poIndex_[p]++;
        a.kind = AccessKind::SyncRmw;
        a.addr = insn.addr;
        a.valueRead = old;
        a.valueWritten = insn.imm;
        a.commitTick = steps_;
        a.gpTick = steps_;
        trace_.add(a);
        u.recordedAccess = true;
        break;
      }
      case Opcode::Movi:
        u.reg = insn.dst;
        u.oldReg = regs_[p][insn.dst];
        regs_[p][insn.dst] = insn.imm;
        break;
      case Opcode::Addi:
        u.reg = insn.dst;
        u.oldReg = regs_[p][insn.dst];
        regs_[p][insn.dst] = regs_[p][insn.src] + insn.imm;
        break;
      case Opcode::Beq:
        if (regs_[p][insn.src] == insn.imm)
            next_pc = insn.target;
        break;
      case Opcode::Bne:
        if (regs_[p][insn.src] != insn.imm)
            next_pc = insn.target;
        break;
      case Opcode::Fence: // atomic machine: already fully ordered
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        u.halts = true;
        halted_[p] = true;
        next_pc = pcs_[p];
        break;
    }
    if (!u.halts && next_pc >= program_.program(p).size()) {
        // Fell off the end: implicit halt.
        u.halts = true;
        halted_[p] = true;
        next_pc = pcs_[p];
    }
    pcs_[p] = next_pc;
    undo_.push_back(u);
    ++steps_;
    return true;
}

void
IdealizedMachine::unstep()
{
    if (undo_.empty())
        throw std::logic_error("IdealizedMachine::unstep: no step to undo");
    UndoRecord u = undo_.back();
    undo_.pop_back();
    pcs_[u.proc] = u.oldPc;
    poIndex_[u.proc] = u.oldPoIndex;
    if (u.reg >= 0)
        regs_[u.proc][u.reg] = u.oldReg;
    if (u.memChanged)
        memory_[u.addr] = u.oldMem;
    if (u.halts)
        halted_[u.proc] = false;
    if (u.recordedAccess)
        trace_.popLast();
    --steps_;
}

RunResult
IdealizedMachine::result() const
{
    RunResult r;
    r.finalMemory = memory_;
    r.registers = regs_;
    r.allHalted = allHalted();
    return r;
}

std::vector<std::uint64_t>
IdealizedMachine::stateKey() const
{
    std::vector<std::uint64_t> key;
    appendStateKey(key);
    return key;
}

void
IdealizedMachine::appendStateKey(std::vector<std::uint64_t> &out) const
{
    std::uint64_t halt_bits = 0;
    for (std::size_t p = 0; p < halted_.size(); ++p) {
        if (halted_[p])
            halt_bits |= 1ull << p;
    }
    out.push_back(halt_bits);
    for (std::size_t p = 0; p < pcs_.size(); ++p) {
        out.push_back(static_cast<std::uint64_t>(pcs_[p]));
        for (Word w : regs_[p])
            out.push_back(w);
    }
    for (const auto &[a, v] : memory_)
        out.push_back(v);
}

OutcomeSet
enumerateOutcomes(const MultiProgram &program, const EnumLimits &limits)
{
    IdealizedMachine m(program);
    OutcomeSet out;
    std::set<std::vector<std::uint64_t>> visited;

    std::function<void(int)> dfs = [&](int depth) {
        if (out.bounded && visited.size() >= limits.maxStates)
            return;
        if (!visited.insert(m.stateKey()).second)
            return;
        ++out.statesVisited;
        if (visited.size() >= limits.maxStates) {
            out.bounded = true;
            return;
        }
        if (m.allHalted()) {
            out.outcomes.insert(m.result());
            return;
        }
        if (depth >= limits.maxStepsPerExecution) {
            out.bounded = true;
            return;
        }
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            if (m.halted(p))
                continue;
            m.step(p);
            dfs(depth + 1);
            m.unstep();
        }
    };
    dfs(0);
    return out;
}

RunResult
runWithSchedule(const MultiProgram &program,
                const std::vector<ProcId> &schedule,
                ExecutionTrace *trace_out, const EnumLimits &limits)
{
    IdealizedMachine m(program);
    int steps = 0;
    for (ProcId p : schedule) {
        if (steps >= limits.maxStepsPerExecution)
            break;
        if (p >= 0 && p < program.numProcs() && !m.halted(p)) {
            m.step(p);
            ++steps;
        }
    }
    // Round-robin to completion.
    while (!m.allHalted() && steps < limits.maxStepsPerExecution) {
        bool progressed = false;
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            if (!m.halted(p)) {
                m.step(p);
                ++steps;
                progressed = true;
            }
        }
        if (!progressed)
            break;
    }
    if (trace_out)
        *trace_out = m.trace();
    return m.result();
}

} // namespace wo
