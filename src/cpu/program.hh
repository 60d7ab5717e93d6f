/**
 * @file
 * Static program representation: per-processor instruction sequences.
 */

#ifndef WO_CPU_PROGRAM_HH
#define WO_CPU_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/isa.hh"
#include "sim/types.hh"

namespace wo {

/** The instruction sequence run by one processor. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::vector<Instruction> code) : code_(std::move(code))
    {}

    /** Number of static instructions. */
    int size() const { return static_cast<int>(code_.size()); }

    /** Instruction at index @p pc. */
    const Instruction &at(int pc) const { return code_.at(pc); }

    /** Append an instruction. */
    void push(const Instruction &insn) { code_.push_back(insn); }

    /** All instructions. */
    const std::vector<Instruction> &code() const { return code_; }

    /** Mutable access (used by the builder for branch patching). */
    std::vector<Instruction> &code() { return code_; }

    /** Highest register index referenced, or -1 for none. */
    int maxRegister() const;

    /** All distinct addresses referenced by memory ops, ascending. */
    std::vector<Addr> touchedAddrs() const;

    /** Multi-line disassembly. */
    std::string toString() const;

    bool operator==(const Program &) const = default;

  private:
    std::vector<Instruction> code_;
};

/**
 * A complete multiprocessor workload: one Program per processor plus
 * initial memory contents (all unlisted locations start at zero, matching
 * the paper's hypothetical initializing writes).
 */
class MultiProgram
{
  public:
    MultiProgram() = default;
    explicit MultiProgram(std::string name) : name_(std::move(name)) {}

    /** Workload name (used in reports). */
    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /** Number of processors. */
    int numProcs() const { return static_cast<int>(programs_.size()); }

    /** Append a processor's program; returns its ProcId. */
    ProcId addProgram(Program p);

    /** Program of processor @p id. */
    const Program &program(ProcId id) const { return programs_.at(id); }

    /** Initial value for @p addr (0 unless overridden). */
    Word initialValue(Addr addr) const;

    /** Override the initial value of one location. */
    void setInitial(Addr addr, Word value);

    /** Explicitly initialized locations. */
    const std::vector<std::pair<Addr, Word>> &initials() const
    {
        return initials_;
    }

    /** Registers needed per processor (max over all programs, >= 1). */
    int numRegisters() const;

    /** Union of addresses touched by any processor or given an initial
     * value, ascending. */
    std::vector<Addr> touchedAddrs() const;

    /** touchedAddrs() into @p out, reusing its storage. */
    void touchedAddrs(std::vector<Addr> &out) const;

    /**
     * 64-bit content hash over the instruction streams and initial
     * memory values (the name is excluded — it cannot affect any
     * execution). Equal program content hashes equally regardless of
     * the order initials were declared in, so the hash can key verdict
     * memos (e.g. the campaign engine's DRF0 memo).
     */
    std::uint64_t contentHash() const;

    /** Multi-line disassembly of the whole workload. */
    std::string toString() const;

    /** Same name, instruction streams and initials (in declaration
     * order). */
    bool operator==(const MultiProgram &) const = default;

  private:
    std::string name_;
    std::vector<Program> programs_;
    std::vector<std::pair<Addr, Word>> initials_;
};

} // namespace wo

#endif // WO_CPU_PROGRAM_HH
