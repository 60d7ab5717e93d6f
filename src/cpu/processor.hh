/**
 * @file
 * The simulated processor: executes one Program, issuing memory accesses
 * through a MemPort under the control of a ConsistencyPolicy row.
 *
 * Intra-processor dependencies (condition 1 of Section 5.1) are always
 * preserved: register data dependencies via a scoreboard, and
 * same-address memory ordering by blocking a new access to a location
 * while an earlier access to it is uncommitted.
 *
 * An optional write buffer (legal only under the Relaxed policy) lets
 * reads bypass buffered writes — the classic uniprocessor optimization
 * whose effect on multiprocessors Figure 1 of the paper illustrates.
 */

#ifndef WO_CPU_PROCESSOR_HH
#define WO_CPU_PROCESSOR_HH

#include <algorithm>
#include <array>
#include <vector>

#include "consistency/policy.hh"
#include "core/trace.hh"
#include "cpu/mem_port.hh"
#include "cpu/program.hh"
#include "obs/latency_histogram.hh"
#include "obs/trace_event.hh"
#include "sim/event_queue.hh"
#include "sim/fifo_vector.hh"
#include "sim/stats.hh"

namespace wo {

class TraceSink;

/** Processor configuration. */
struct ProcessorConfig
{
    /** Minimum residence of a write in the buffer before it drains to the
     * memory system (models waiting for an idle bus slot); this is what
     * actually lets a subsequent read overtake the write. */
    Tick wbDrainDelay = 6;
};

/** One simulated processor. */
class Processor : public CacheClient
{
  public:
    /** Max memory ops issued to the port and not yet committed. */
    static constexpr int kMaxOutstanding = 8;

    /** Cycle time: one instruction dispatched per cycle. */
    static constexpr Tick kCycle = 1;

    /** @p policy is a policyOf() row. @p writeBuffer enables the store
     * buffer (reads pass pending writes); std::invalid_argument unless
     * @p policy allows it. Every System processor runs the default
     * @p cfg; unit tests vary it. */
    Processor(EventQueue &eq, StatSet &stats, ProcId id,
              const Program &program, MemPort &port,
              const ConsistencyPolicy &policy, ExecutionTrace *trace,
              bool writeBuffer, const ProcessorConfig &cfg = {});

    /** Kick off execution (schedules the first dispatch). */
    void start();

    /**
     * Restore construction-time state and bind a (possibly different)
     * program for the next run. Registers are re-sized for the new
     * program; all in-flight op records, write-buffer entries and
     * stall attribution are dropped. The caller must have reset the
     * event queue first so no stale dispatch events survive.
     */
    void reset(const Program &program);

    /** True once the Halt instruction retired. */
    bool halted() const { return halted_; }

    /** Tick at which Halt retired (kNoTick while running). */
    Tick haltTick() const { return halt_tick_; }

    /** Architectural registers. */
    const std::vector<Word> &registers() const { return regs_; }

    /** Cycles this processor spent unable to dispatch. */
    Tick stallCycles() const { return stall_cycles_; }

    /** Stalled cycles attributed to @p r. The per-reason cycles always
     * sum to stallCycles(): each stall segment is closed into exactly
     * one reason bucket when dispatch resumes (or the reason changes). */
    Tick
    stallCyclesFor(StallReason r) const
    {
        return stall_by_reason_[static_cast<std::size_t>(r)];
    }

    /**
     * Attach a structured trace sink (nullptr detaches). Enables event
     * emission, the issue->globally-performed latency histogram and the
     * per-reason stall stats flushed by finalizeObs(). With no sink
     * attached the only cost per potential event is this null test.
     */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** Export observability stats (stall attribution) into the StatSet.
     * Called at end of run; a no-op when no sink is attached, so
     * tracing-off stat output is unchanged. */
    void finalizeObs();

    /** The issue->globally-performed latency histogram (samples only
     * accumulate while a trace sink is attached). */
    const LatencyHistogram &issueGpHistogram() const { return lat_gp_; }

    /** Dynamic instructions retired. */
    std::uint64_t instructions() const { return instructions_; }

    /** True when no issued op is still outstanding (all committed and
     * globally performed) and the write buffer is empty. */
    bool quiescent() const;

    // CacheClient interface.
    void opCommitted(std::uint64_t id, Word read_value) override;
    void opGloballyPerformed(std::uint64_t id) override;
    void counterReadsZero() override;

  private:
    struct OpRecord
    {
        int traceId = -1;
        AccessKind kind = AccessKind::DataRead;
        Addr addr = 0;
        int destReg = -1;
        /** The port's commit notification arrived (for a buffered
         * write: its drain's). */
        bool committed = false;
        bool gp = false;
        bool fromWriteBuffer = false;
        bool live = false; ///< issued and not yet committed + GP
        Tick issueTick = 0;
    };

    struct WbEntry
    {
        std::uint64_t id;
        Addr addr;
        Word value;
        Tick insertTick;
    };

    void scheduleAdvance(Tick delay);
    void tryAdvance();
    bool issueMemOp(const Instruction &insn, StallReason *why);
    void drainWriteBuffer();
    void noteStall(StallReason why);
    void noteProgress();
    void closeStallSegment(Tick now);
    void emitOpEvent(TraceKind kind, const OpRecord &rec,
                     std::uint64_t id);
    ProcState snapshot() const;
    bool regBusy(int r) const { return r >= 0 && reg_busy_[r]; }
    std::uint64_t nextId() { return ++last_id_; }

    /** Open the record of the op just issued (id last_id_). */
    OpRecord &openOp();
    /** The live record of op @p id; throws std::logic_error, in every
     * build type, naming @p event and the id if there is none. */
    OpRecord &liveOp(std::uint64_t id, const char *event);
    /** Drop op @p id's record and pop retired slots off the front. */
    void retireOp(std::uint64_t id);
    OpRecord &slot(std::uint64_t id) { return ops_[id & (ops_.size() - 1)]; }
    bool
    addrBlocked(Addr a) const
    {
        return std::find(addr_blocked_.begin(), addr_blocked_.end(), a) !=
               addr_blocked_.end();
    }
    int recordTraceAccess(AccessKind kind, Addr addr, Word write_value);

    EventQueue &eq_;
    StatSet &stats_;
    ProcId id_;
    /** Owned by the System/harness; rebound by reset() when the job's
     * MultiProgram changes, hence a pointer rather than a reference. */
    const Program *program_;
    MemPort &port_;
    const ConsistencyPolicy &policy_;
    ExecutionTrace *trace_;
    bool writeBuffer_;
    ProcessorConfig cfg_;
    std::string name_;

    /** Interned stat handles, resolved once at construction. */
    struct StatHandles
    {
        StatHandle instructions;
        StatHandle wbInserts;
        StatHandle wbForwards;
        StatHandle policyStalls;
        StatHandle memOps;
    };
    StatHandles stat_;

    int pc_ = 0;
    std::vector<Word> regs_;
    std::vector<bool> reg_busy_;
    bool halted_ = false;
    Tick halt_tick_ = kNoTick;

    /**
     * Op records by id. nextId() issues ids densely, so the records of
     * ids [op_base_, last_id_] sit in a power-of-two ring indexed by
     * id; retired slots pop off the front. The window spans the oldest
     * live op to the newest, so it stays near kMaxOutstanding plus the
     * write buffer's depth.
     */
    std::vector<OpRecord> ops_ = std::vector<OpRecord>(16);
    std::uint64_t op_base_ = 1;
    int live_ops_ = 0;
    /** Addresses with an uncommitted ordinary access (condition 1 keeps
     * at most one per address, and at most kMaxOutstanding in all). */
    std::vector<Addr> addr_blocked_;
    FifoVector<WbEntry> write_buffer_;
    bool wb_drain_in_flight_ = false;

    int outstanding_ = 0;
    int not_gp_ = 0;
    int syncs_not_committed_ = 0;
    int syncs_not_gp_ = 0;

    std::uint64_t last_id_ = 0;
    int mem_op_index_ = 0;
    bool advance_scheduled_ = false;
    Tick stall_since_ = kNoTick;
    Tick stall_cycles_ = 0;
    std::uint64_t instructions_ = 0;

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
    StallReason stall_reason_ = StallReason::CounterNonzero;
    std::array<Tick, kNumStallReasons> stall_by_reason_{};
    LatencyHistogram lat_gp_;
};

} // namespace wo

#endif // WO_CPU_PROCESSOR_HH
