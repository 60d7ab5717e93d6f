/**
 * @file
 * The miniature instruction set executed by the simulated processors.
 *
 * The ISA is deliberately tiny but complete enough to express every program
 * the paper reasons about: the Figure 1 (Dekker-style) litmus, producer /
 * consumer with Unset/TestAndSet synchronization (Figure 3), spin locks,
 * test-and-test&set locks and barrier spins (Section 6), and random
 * lock-structured workloads.
 *
 * Synchronization operations follow DRF0's restrictions: each accesses
 * exactly one memory location, and is recognizable by the hardware by
 * opcode. Three flavours exist, matching the paper's Section 6 taxonomy:
 * read-only (Test), write-only (Unset), and read-write (TestAndSet).
 */

#ifndef WO_CPU_ISA_HH
#define WO_CPU_ISA_HH

#include <string>

#include "sim/types.hh"

namespace wo {

/** Opcodes of the simulated ISA. */
enum class Opcode {
    Load,       ///< r[dst] = mem[addr]              (data read)
    Store,      ///< mem[addr] = value               (data write)
    TestAndSet, ///< r[dst] = mem[addr]; mem[addr]=imm (read-write sync)
    SyncRead,   ///< r[dst] = mem[addr]              (read-only sync, Test)
    SyncWrite,  ///< mem[addr] = value               (write-only sync, Unset)
    Movi,       ///< r[dst] = imm
    Addi,       ///< r[dst] = r[src] + imm
    Beq,        ///< if (r[src] == imm) goto target
    Bne,        ///< if (r[src] != imm) goto target
    Fence,      ///< stall until all previous accesses are globally
                ///< performed (the RP3-style fence of Section 2.1)
    Nop,        ///< spend one cycle (models "other work")
    Halt,       ///< stop this processor
};

/** Categories of dynamic memory accesses, as used by the formal core. */
enum class AccessKind {
    DataRead,
    DataWrite,
    SyncRead,  ///< read-only synchronization (Test)
    SyncWrite, ///< write-only synchronization (Unset)
    SyncRmw,   ///< read-write synchronization (TestAndSet)
};

/** True for the three synchronization access kinds. */
constexpr bool
isSync(AccessKind k)
{
    return k == AccessKind::SyncRead || k == AccessKind::SyncWrite ||
           k == AccessKind::SyncRmw;
}

/** True if the access kind has a read component. */
constexpr bool
readsMemory(AccessKind k)
{
    return k == AccessKind::DataRead || k == AccessKind::SyncRead ||
           k == AccessKind::SyncRmw;
}

/** True if the access kind has a write component. */
constexpr bool
writesMemory(AccessKind k)
{
    return k == AccessKind::DataWrite || k == AccessKind::SyncWrite ||
           k == AccessKind::SyncRmw;
}

/** Short mnemonic, e.g. "R", "W", "S(r)", "S(w)", "S(rw)". */
std::string toString(AccessKind k);

/**
 * One static instruction.
 *
 * Operand conventions:
 *  - @c dst / @c src are register indices, -1 when unused.
 *  - For Store/SyncWrite, the value written is r[src] when src >= 0, else
 *    @c imm.
 *  - For TestAndSet, the value written is @c imm (1 by default).
 *  - @c target is the branch destination (instruction index).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    int dst = -1;
    int src = -1;
    Word imm = 0;
    Addr addr = 0;
    int target = -1;

    /** Field-wise equality (round-trip and differential tests). */
    bool operator==(const Instruction &o) const
    {
        return op == o.op && dst == o.dst && src == o.src &&
               imm == o.imm && addr == o.addr && target == o.target;
    }

    /** True for opcodes that touch memory. */
    bool isMemOp() const;

    /** Dynamic access kind of a memory opcode (asserts for non-mem ops). */
    AccessKind accessKind() const;

    /** Human-readable disassembly. */
    std::string toString() const;
};

/** Name of an opcode, e.g. "LOAD". */
std::string toString(Opcode op);

} // namespace wo

#endif // WO_CPU_ISA_HH
