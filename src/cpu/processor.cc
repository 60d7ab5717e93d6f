#include "cpu/processor.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/trace_sink.hh"

namespace wo {

namespace {

/** Static access-kind tags for TraceEvent::detail. */
const char *
accessKindTag(AccessKind k)
{
    switch (k) {
      case AccessKind::DataRead: return "data_read";
      case AccessKind::DataWrite: return "data_write";
      case AccessKind::SyncRead: return "sync_read";
      case AccessKind::SyncWrite: return "sync_write";
      case AccessKind::SyncRmw: return "sync_rmw";
    }
    return "?";
}

} // namespace

Processor::Processor(EventQueue &eq, StatSet &stats, ProcId id,
                     const Program &program, MemPort &port,
                     const ConsistencyPolicy &policy, ExecutionTrace *trace,
                     bool writeBuffer, const ProcessorConfig &cfg)
    : eq_(eq), stats_(stats), id_(id), program_(&program), port_(port),
      policy_(policy), trace_(trace), writeBuffer_(writeBuffer), cfg_(cfg),
      name_("proc" + std::to_string(id)),
      lat_gp_(stats, name_, LatencyKind::IssueGp)
{
    if (writeBuffer_ && !policy_.allowWriteBuffer) {
        throw std::invalid_argument(
            "write buffer is illegal under policy " +
            std::string(policy_.name));
    }
    stat_.instructions = stats_.handle(name_ + ".instructions");
    stat_.wbInserts = stats_.handle(name_ + ".wb_inserts");
    stat_.wbForwards = stats_.handle(name_ + ".wb_forwards");
    stat_.policyStalls = stats_.handle(name_ + ".policy_stalls");
    stat_.memOps = stats_.handle(name_ + ".mem_ops");
    int nregs = std::max(program.maxRegister() + 1, 1);
    regs_.assign(nregs, 0);
    reg_busy_.assign(nregs, false);
    port_.setPortClient(this);
}

void
Processor::reset(const Program &program)
{
    program_ = &program;
    pc_ = 0;
    int nregs = std::max(program.maxRegister() + 1, 1);
    regs_.assign(nregs, 0);
    reg_busy_.assign(nregs, false);
    halted_ = false;
    halt_tick_ = kNoTick;
    op_base_ = 1;
    live_ops_ = 0;
    addr_blocked_.clear();
    write_buffer_.clear();
    wb_drain_in_flight_ = false;
    outstanding_ = 0;
    not_gp_ = 0;
    syncs_not_committed_ = 0;
    syncs_not_gp_ = 0;
    last_id_ = 0;
    mem_op_index_ = 0;
    // Safe only because the owner reset the event queue first: any
    // pending dispatch lambda was destroyed with it.
    advance_scheduled_ = false;
    stall_since_ = kNoTick;
    stall_cycles_ = 0;
    instructions_ = 0;
    stall_reason_ = StallReason::CounterNonzero;
    stall_by_reason_.fill(0);
    lat_gp_.reset();
}

void
Processor::start()
{
    if (program_->size() == 0) {
        halted_ = true;
        halt_tick_ = eq_.now();
        return;
    }
    scheduleAdvance(0);
}

bool
Processor::quiescent() const
{
    return live_ops_ == 0 && write_buffer_.empty() && !wb_drain_in_flight_;
}

Processor::OpRecord &
Processor::openOp()
{
    if (last_id_ - op_base_ >= ops_.size()) {
        // The window outgrew the ring: double it, keeping each live
        // record at its id's slot.
        std::vector<OpRecord> grown(2 * ops_.size());
        for (std::uint64_t id = op_base_; id < last_id_; ++id)
            grown[id & (grown.size() - 1)] = slot(id);
        ops_ = std::move(grown);
    }
    OpRecord &rec = slot(last_id_);
    rec = OpRecord{};
    rec.live = true;
    ++live_ops_;
    return rec;
}

Processor::OpRecord &
Processor::liveOp(std::uint64_t id, const char *event)
{
    if (id < op_base_ || id > last_id_ || !slot(id).live)
        throw std::logic_error(name_ + ": " + event +
                               " for unknown op id " + std::to_string(id));
    return slot(id);
}

void
Processor::retireOp(std::uint64_t id)
{
    slot(id).live = false;
    --live_ops_;
    while (op_base_ <= last_id_ && !slot(op_base_).live)
        ++op_base_;
}

void
Processor::scheduleAdvance(Tick delay)
{
    if (advance_scheduled_ || halted_)
        return;
    advance_scheduled_ = true;
    eq_.scheduleAfter(delay, [this] {
        advance_scheduled_ = false;
        tryAdvance();
    });
}

void
Processor::closeStallSegment(Tick now)
{
    Tick d = now - stall_since_;
    stall_cycles_ += d;
    stall_by_reason_[static_cast<std::size_t>(stall_reason_)] += d;
}

void
Processor::noteStall(StallReason why)
{
    if (stall_since_ == kNoTick) {
        stall_since_ = eq_.now();
        stall_reason_ = why;
        if (CoverageMap *cov = activeCoverage())
            cov->hitStall(why);
        if (sink_) {
            TraceEvent ev;
            ev.tick = eq_.now();
            ev.comp = TraceComp::Proc;
            ev.kind = TraceKind::StallBegin;
            ev.compId = id_;
            ev.proc = id_;
            ev.detail = toString(why);
            sink_->record(ev);
        }
    } else if (why != stall_reason_) {
        // Attribute the elapsed segment to the old reason, then open a
        // new segment; total and per-reason cycles stay in lockstep.
        closeStallSegment(eq_.now());
        stall_since_ = eq_.now();
        if (CoverageMap *cov = activeCoverage())
            cov->hitStall(why);
        if (sink_) {
            TraceEvent ev;
            ev.tick = eq_.now();
            ev.comp = TraceComp::Proc;
            ev.kind = TraceKind::StallEnd;
            ev.compId = id_;
            ev.proc = id_;
            ev.detail = toString(stall_reason_);
            sink_->record(ev);
            ev.kind = TraceKind::StallBegin;
            ev.detail = toString(why);
            sink_->record(ev);
        }
        stall_reason_ = why;
    }
}

void
Processor::noteProgress()
{
    if (stall_since_ != kNoTick) {
        closeStallSegment(eq_.now());
        stall_since_ = kNoTick;
        if (sink_) {
            TraceEvent ev;
            ev.tick = eq_.now();
            ev.comp = TraceComp::Proc;
            ev.kind = TraceKind::StallEnd;
            ev.compId = id_;
            ev.proc = id_;
            ev.detail = toString(stall_reason_);
            sink_->record(ev);
        }
    }
}

void
Processor::emitOpEvent(TraceKind kind, const OpRecord &rec,
                       std::uint64_t id)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Proc;
    ev.kind = kind;
    ev.compId = id_;
    ev.proc = id_;
    ev.addr = rec.addr;
    ev.opId = id;
    ev.detail = accessKindTag(rec.kind);
    if (trace_ && rec.traceId >= 0 && rec.traceId >= trace_->firstId()) {
        // Carry the access values so sinks can reconstruct replayable
        // traces: `value` is the written value (known from issue),
        // `aux` the read value (bound at commit, 0 before).
        const Access &a = trace_->at(rec.traceId);
        ev.value = a.valueWritten;
        ev.aux = static_cast<std::int64_t>(a.valueRead);
    }
    sink_->record(ev);
}

void
Processor::finalizeObs()
{
    if (!sink_)
        return;
    stats_.set(name_ + ".stall_cycles_total", stall_cycles_);
    for (int r = 0; r < kNumStallReasons; ++r) {
        StallReason reason = static_cast<StallReason>(r);
        stats_.set(name_ + ".stall." + toString(reason),
                   stall_by_reason_[static_cast<std::size_t>(r)]);
    }
}

ProcState
Processor::snapshot() const
{
    ProcState st;
    st.notGloballyPerformed = not_gp_;
    st.syncsNotCommitted = syncs_not_committed_;
    st.syncsNotGloballyPerformed = syncs_not_gp_;
    return st;
}

int
Processor::recordTraceAccess(AccessKind kind, Addr addr, Word write_value)
{
    if (!trace_)
        return -1;
    Access a;
    a.proc = id_;
    a.poIndex = mem_op_index_++;
    a.kind = kind;
    a.addr = addr;
    a.valueWritten = write_value;
    return trace_->add(a);
}

void
Processor::tryAdvance()
{
    if (halted_)
        return;
    if (pc_ >= program_->size()) {
        halted_ = true;
        halt_tick_ = eq_.now();
        return;
    }
    const Instruction &insn = program_->at(pc_);
    switch (insn.op) {
      case Opcode::Movi:
        if (regBusy(insn.dst)) {
            noteStall(StallReason::Dependency);
            return;
        }
        regs_[insn.dst] = insn.imm;
        break;
      case Opcode::Addi:
        if (regBusy(insn.src) || regBusy(insn.dst)) {
            noteStall(StallReason::Dependency);
            return;
        }
        regs_[insn.dst] = regs_[insn.src] + insn.imm;
        break;
      case Opcode::Nop:
        break;
      case Opcode::Beq:
      case Opcode::Bne:
        if (regBusy(insn.src)) {
            noteStall(StallReason::Dependency);
            return;
        }
        break;
      case Opcode::Fence:
        // RP3-style fence: wait for every previous access (including
        // buffered writes) to be globally performed.
        if (not_gp_ > 0 || !write_buffer_.empty() ||
            wb_drain_in_flight_) {
            noteStall(StallReason::Fence);
            return;
        }
        break;
      case Opcode::Halt:
        noteProgress();
        halted_ = true;
        halt_tick_ = eq_.now();
        ++instructions_;
        return;
      default: { // memory operations
        StallReason why = StallReason::CounterNonzero;
        if (!issueMemOp(insn, &why)) {
            noteStall(why);
            return;
        }
        break;
      }
    }
    noteProgress();
    ++instructions_;
    stats_.inc(stat_.instructions);

    // Advance the pc.
    if (insn.op == Opcode::Beq && regs_[insn.src] == insn.imm) {
        pc_ = insn.target;
    } else if (insn.op == Opcode::Bne && regs_[insn.src] != insn.imm) {
        pc_ = insn.target;
    } else {
        ++pc_;
    }
    scheduleAdvance(kCycle);
}

bool
Processor::issueMemOp(const Instruction &insn, StallReason *why)
{
    AccessKind kind = insn.accessKind();
    bool is_write_like = writesMemory(kind);
    bool needs_src =
        (insn.op == Opcode::Store || insn.op == Opcode::SyncWrite) &&
        insn.src >= 0;
    if (needs_src && regBusy(insn.src)) {
        *why = StallReason::Dependency;
        return false;
    }
    if (readsMemory(kind) && regBusy(insn.dst)) {
        *why = StallReason::Dependency;
        return false;
    }

    Word write_value = 0;
    if (is_write_like) {
        if (insn.op == Opcode::TestAndSet)
            write_value = insn.imm;
        else
            write_value = insn.src >= 0 ? regs_[insn.src] : insn.imm;
    }

    // Write-buffer fast paths (Relaxed policy only).
    if (writeBuffer_) {
        if (kind == AccessKind::DataWrite) {
            std::uint64_t id = nextId();
            OpRecord &rec = openOp();
            rec.kind = kind;
            rec.addr = insn.addr;
            // Architecturally complete at insert (the trace's commit
            // tick); `committed` waits for the drain's notification.
            rec.fromWriteBuffer = true;
            rec.issueTick = eq_.now();
            rec.traceId = recordTraceAccess(kind, insn.addr, write_value);
            if (trace_ && rec.traceId >= 0)
                trace_->mutableAt(rec.traceId).commitTick = eq_.now();
            ++not_gp_;
            write_buffer_.push_back({id, insn.addr, write_value,
                                     eq_.now()});
            stats_.inc(stat_.wbInserts);
            if (sink_)
                emitOpEvent(TraceKind::WbInsert, rec, id);
            drainWriteBuffer();
            return true;
        }
        if (kind == AccessKind::DataRead) {
            // Forward the youngest buffered write to the same address.
            for (auto it = write_buffer_.rbegin();
                 it != write_buffer_.rend(); ++it) {
                if (it->addr == insn.addr) {
                    regs_[insn.dst] = it->value;
                    int tid = recordTraceAccess(kind, insn.addr, 0);
                    if (trace_ && tid >= 0) {
                        Access &a = trace_->mutableAt(tid);
                        a.valueRead = it->value;
                        a.commitTick = eq_.now();
                        a.gpTick = eq_.now();
                    }
                    stats_.inc(stat_.wbForwards);
                    if (sink_) {
                        TraceEvent ev;
                        ev.tick = eq_.now();
                        ev.comp = TraceComp::Proc;
                        ev.kind = TraceKind::WbForward;
                        ev.compId = id_;
                        ev.proc = id_;
                        ev.addr = insn.addr;
                        ev.value = it->value;
                        sink_->record(ev);
                    }
                    return true;
                }
            }
            // No match: the read bypasses all buffered writes and issues.
        }
        if (isSync(kind) &&
            (!write_buffer_.empty() || wb_drain_in_flight_)) {
            *why = StallReason::BufferFull;
            return false; // synchronization drains the buffer first
        }
    }

    // Ordinary issue.
    if (addrBlocked(insn.addr)) {
        *why = StallReason::SameAddr;
        return false; // same-address ordering (condition 1)
    }
    if (outstanding_ >= kMaxOutstanding) {
        *why = StallReason::BufferFull;
        return false;
    }
    if (std::optional<StallReason> r = policy_.block(kind, snapshot())) {
        stats_.inc(stat_.policyStalls);
        *why = *r;
        return false;
    }

    std::uint64_t id = nextId();
    OpRecord &rec = openOp();
    rec.kind = kind;
    rec.addr = insn.addr;
    rec.destReg = readsMemory(kind) ? insn.dst : -1;
    rec.issueTick = eq_.now();
    rec.traceId = recordTraceAccess(kind, insn.addr, write_value);

    ++outstanding_;
    ++not_gp_;
    if (isSync(kind)) {
        ++syncs_not_committed_;
        ++syncs_not_gp_;
    }
    addr_blocked_.push_back(insn.addr);
    if (rec.destReg >= 0)
        reg_busy_[rec.destReg] = true;

    stats_.inc(stat_.memOps);
    if (sink_)
        emitOpEvent(TraceKind::Issue, rec, id);
    CacheOp op;
    op.id = id;
    op.kind = kind;
    op.addr = insn.addr;
    op.writeValue = write_value;
    port_.request(op);
    return true;
}

void
Processor::drainWriteBuffer()
{
    if (wb_drain_in_flight_ || write_buffer_.empty())
        return;
    const WbEntry &head = write_buffer_.front();
    // Same-address ordering (condition 1) binds the drain too: the cache
    // holds one miss per address, so the head must wait while an
    // ordinary access to its line is outstanding. opCommitted clears the
    // block and re-invokes the drain.
    if (addrBlocked(head.addr))
        return;
    Tick ready = head.insertTick + cfg_.wbDrainDelay;
    Tick delay = ready > eq_.now() ? ready - eq_.now() : 0;
    if (delay > 0) {
        // Re-decide at ready time; the address block may change. A
        // duplicate wakeup is harmless — the re-check is idempotent.
        eq_.scheduleAfter(delay, [this] { drainWriteBuffer(); });
        return;
    }
    wb_drain_in_flight_ = true;
    CacheOp op;
    op.id = head.id;
    op.kind = AccessKind::DataWrite;
    op.addr = head.addr;
    op.writeValue = head.value;
    port_.request(op);
}

void
Processor::opCommitted(std::uint64_t id, Word read_value)
{
    OpRecord &rec = liveOp(id, "commit");

    if (rec.fromWriteBuffer) {
        // The head drain reached the cache; release the buffer slot.
        if (write_buffer_.empty() || write_buffer_.front().id != id)
            throw std::logic_error(
                name_ + ": buffered-write commit for op id " +
                std::to_string(id) + ", which is not the write-buffer head");
        write_buffer_.pop_front();
        wb_drain_in_flight_ = false;
        rec.committed = true;
        drainWriteBuffer();
        if (rec.gp) // GP raced ahead of the commit notification
            retireOp(id);
        scheduleAdvance(0);
        return;
    }

    if (rec.committed)
        throw std::logic_error(name_ + ": duplicate commit for op id " +
                               std::to_string(id));
    rec.committed = true;
    --outstanding_;
    if (isSync(rec.kind))
        --syncs_not_committed_;
    auto blocked =
        std::find(addr_blocked_.begin(), addr_blocked_.end(), rec.addr);
    if (blocked != addr_blocked_.end()) {
        *blocked = addr_blocked_.back();
        addr_blocked_.pop_back();
    }
    drainWriteBuffer(); // a buffered write to rec.addr may be waiting
    if (rec.destReg >= 0) {
        regs_[rec.destReg] = read_value;
        reg_busy_[rec.destReg] = false;
    }
    if (trace_ && rec.traceId >= 0) {
        Access &a = trace_->mutableAt(rec.traceId);
        a.commitTick = eq_.now();
        if (readsMemory(rec.kind))
            a.valueRead = read_value;
    }
    if (sink_)
        emitOpEvent(TraceKind::Commit, rec, id);
    if (rec.gp)
        retireOp(id);
    scheduleAdvance(0);
}

void
Processor::opGloballyPerformed(std::uint64_t id)
{
    OpRecord &rec = liveOp(id, "gp");
    if (rec.gp)
        throw std::logic_error(name_ + ": duplicate gp for op id " +
                               std::to_string(id));
    rec.gp = true;
    --not_gp_;
    if (isSync(rec.kind))
        --syncs_not_gp_;
    if (trace_ && rec.traceId >= 0)
        trace_->mutableAt(rec.traceId).gpTick = eq_.now();
    if (sink_) {
        emitOpEvent(TraceKind::GloballyPerformed, rec, id);
        lat_gp_.record(eq_.now() - rec.issueTick);
    } else {
        // Tracing off: keep the latency *buckets* observable to an
        // installed CoverageMap without interning any stats.
        lat_gp_.coverOnly(eq_.now() - rec.issueTick);
    }
    if (rec.committed)
        retireOp(id);
    scheduleAdvance(0);
}

void
Processor::counterReadsZero()
{
    scheduleAdvance(0);
}

} // namespace wo
