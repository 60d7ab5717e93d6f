#include "cpu/isa.hh"

#include <cassert>
#include <sstream>

namespace wo {

std::string
toString(AccessKind k)
{
    switch (k) {
      case AccessKind::DataRead: return "R";
      case AccessKind::DataWrite: return "W";
      case AccessKind::SyncRead: return "S(r)";
      case AccessKind::SyncWrite: return "S(w)";
      case AccessKind::SyncRmw: return "S(rw)";
    }
    return "?";
}

bool
Instruction::isMemOp() const
{
    switch (op) {
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::TestAndSet:
      case Opcode::SyncRead:
      case Opcode::SyncWrite:
        return true;
      default:
        return false;
    }
}

AccessKind
Instruction::accessKind() const
{
    switch (op) {
      case Opcode::Load: return AccessKind::DataRead;
      case Opcode::Store: return AccessKind::DataWrite;
      case Opcode::TestAndSet: return AccessKind::SyncRmw;
      case Opcode::SyncRead: return AccessKind::SyncRead;
      case Opcode::SyncWrite: return AccessKind::SyncWrite;
      default:
        assert(false && "accessKind() on non-memory opcode");
        return AccessKind::DataRead;
    }
}

std::string
toString(Opcode op)
{
    switch (op) {
      case Opcode::Load: return "LOAD";
      case Opcode::Store: return "STORE";
      case Opcode::TestAndSet: return "TAS";
      case Opcode::SyncRead: return "TEST";
      case Opcode::SyncWrite: return "UNSET";
      case Opcode::Movi: return "MOVI";
      case Opcode::Addi: return "ADDI";
      case Opcode::Beq: return "BEQ";
      case Opcode::Bne: return "BNE";
      case Opcode::Fence: return "FENCE";
      case Opcode::Nop: return "NOP";
      case Opcode::Halt: return "HALT";
    }
    return "?";
}

std::string
Instruction::toString() const
{
    std::ostringstream oss;
    oss << wo::toString(op);
    switch (op) {
      case Opcode::Load:
      case Opcode::SyncRead:
        oss << " r" << dst << ", [" << addr << "]";
        break;
      case Opcode::Store:
      case Opcode::SyncWrite:
        oss << " [" << addr << "], ";
        if (src >= 0)
            oss << "r" << src;
        else
            oss << "#" << imm;
        break;
      case Opcode::TestAndSet:
        oss << " r" << dst << ", [" << addr << "], #" << imm;
        break;
      case Opcode::Movi:
        oss << " r" << dst << ", #" << imm;
        break;
      case Opcode::Addi:
        oss << " r" << dst << ", r" << src << ", #" << imm;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
        oss << " r" << src << ", #" << imm << ", @" << target;
        break;
      case Opcode::Fence:
      case Opcode::Nop:
      case Opcode::Halt:
        break;
    }
    return oss.str();
}

} // namespace wo
