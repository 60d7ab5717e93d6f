/**
 * @file
 * The paper's idealized architecture: all memory accesses execute
 * atomically and in program order. Definition 3 quantifies over executions
 * of this machine; Definition 2 compares hardware results against its
 * outcome set.
 *
 * Two services are provided:
 *  - single-step interpretation with undo (IdealizedMachine), used to
 *    replay specific interleavings and by the state searches (the DRF0
 *    program check, core/drf0_checker.hh);
 *  - exhaustive enumeration of the set of sequentially consistent outcomes
 *    (memoized over machine states).
 */

#ifndef WO_CORE_IDEALIZED_HH
#define WO_CORE_IDEALIZED_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

/**
 * Interpreter state for one idealized (atomic, in-program-order)
 * execution.
 */
class IdealizedMachine
{
  public:
    explicit IdealizedMachine(const MultiProgram &program);

    /** True when processor @p p reached Halt. */
    bool halted(ProcId p) const { return halted_[p]; }

    /** True when every processor halted. */
    bool allHalted() const;

    /** Number of instructions executed so far. */
    std::uint64_t steps() const { return steps_; }

    /**
     * Execute one instruction of processor @p p atomically.
     *
     * If the instruction is a memory access, it is appended to the
     * recorded trace. Returns false (and does nothing) if @p p already
     * halted.
     */
    bool step(ProcId p);

    /** Undo the most recent step (for backtracking searches). Throws
     * std::logic_error when there is no step to undo. */
    void unstep();

    /** Current value of a memory location. */
    Word memory(Addr a) const;

    /** Current register value. */
    Word reg(ProcId p, int r) const { return regs_[p][r]; }

    /** Program counter of processor @p p. */
    int pc(ProcId p) const { return pcs_[p]; }

    /** The trace recorded so far (accesses of executed memory ops). */
    const ExecutionTrace &trace() const { return trace_; }

    /** Snapshot the observable outcome of the current state. */
    RunResult result() const;

    /** Append a compact serialization of the state, for memoization, to
     * @p out: the halt bits, each processor's pc and registers, and the
     * value of each of the program's touched addresses. Its length is
     * fixed by the program. */
    void appendStateKey(std::vector<std::uint64_t> &out) const;

  private:
    struct UndoRecord
    {
        ProcId proc;
        int oldPc;
        int reg = -1;
        Word oldReg = 0;
        bool memChanged = false;
        Addr addr = 0;
        Word oldMem = 0;
        bool halts = false;
        bool recordedAccess = false;
        int oldPoIndex = 0;
    };

    const MultiProgram &program_;
    std::vector<int> pcs_;
    std::vector<std::vector<Word>> regs_;
    std::vector<bool> halted_;
    std::vector<int> poIndex_;
    std::map<Addr, Word> memory_;
    std::vector<Addr> touched_;
    ExecutionTrace trace_;
    std::vector<UndoRecord> undo_;
    std::uint64_t steps_ = 0;
};

/** Limits on exhaustive enumeration. */
struct EnumLimits
{
    /** Max instructions along any single interleaving (outcome
     * enumeration and runWithSchedule). */
    int maxStepsPerExecution = 10000;

    /** Max distinct states (outcome enumeration and the DRF0 check). */
    std::uint64_t maxStates = 5000000;
};

/** Result of outcome enumeration. */
struct OutcomeSet
{
    /** Every outcome reachable by some idealized execution. */
    std::set<RunResult> outcomes;

    /** True if a cap was hit, making the set a lower bound. */
    bool bounded = false;

    /** Distinct machine states visited. */
    std::uint64_t statesVisited = 0;
};

/**
 * Enumerate the full set of sequentially consistent outcomes of
 * @p program.
 */
OutcomeSet enumerateOutcomes(const MultiProgram &program,
                             const EnumLimits &limits = {});

/**
 * Replay a specific interleaving: entries of @p schedule name the
 * processor to step next (entries for halted processors are skipped);
 * after the schedule is exhausted, execution continues round-robin until
 * all processors halt or @p limits.maxStepsPerExecution is reached.
 */
RunResult runWithSchedule(const MultiProgram &program,
                          const std::vector<ProcId> &schedule,
                          ExecutionTrace *trace_out = nullptr,
                          const EnumLimits &limits = {});

} // namespace wo

#endif // WO_CORE_IDEALIZED_HH
