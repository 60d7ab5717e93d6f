#include "coherence/cache.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "consistency/policy.hh"
#include "obs/coverage.hh"
#include "obs/trace_sink.hh"

namespace wo {

Cache::Cache(EventQueue &eq, Interconnect &net, StatSet &stats, NodeId node,
             NodeId dir_base, int num_dirs, ProtocolKind protocol,
             const ConsistencyPolicy &policy, const CacheConfig &cfg,
             std::string name)
    : eq_(eq), net_(net), stats_(stats), node_(node), dir_base_(dir_base),
      num_dirs_(num_dirs), cfg_(cfg),
      syncReadsAsWrites_(policy.syncReadsAsWrites),
      useReserveBits_(policy.useReserveBits),
      proto_(&CoherenceProtocol::get(protocol)), name_(std::move(name))
{
    stat_.hits = stats_.handle(name_ + ".hits");
    stat_.misses = stats_.handle(name_ + ".misses");
    stat_.writebacks = stats_.handle(name_ + ".writebacks");
    stat_.silentDrops = stats_.handle(name_ + ".silent_drops");
    stat_.silentUpgrades = stats_.handle(name_ + ".silent_upgrades");
    stat_.cleanRelinquishes =
        stats_.handle(name_ + ".clean_relinquishes");
    stat_.reserves = stats_.handle(name_ + ".reserves");
    stat_.missStallsTotal = stats_.handle(name_ + ".miss_stalls_total");
    for (int m = 0; m < kNumMissStalls; ++m) {
        stat_.stalledBy[m] = stats_.handle(
            name_ + ".stalled_by_" + toString(static_cast<MissStall>(m)));
    }
    stat_.counterMax =
        stats_.handle(name_ + ".counter_max", StatSet::Kind::Max);
    stat_.putacks = stats_.handle(name_ + ".putacks");
    stat_.invalidations = stats_.handle(name_ + ".invalidations");
    stat_.staleInvalidations =
        stats_.handle(name_ + ".stale_invalidations");
    stat_.recallNacks = stats_.handle(name_ + ".recall_nacks");
    stat_.recallsQueued = stats_.handle(name_ + ".recalls_queued");
    stat_.recallsServiced = stats_.handle(name_ + ".recalls_serviced");
    inflight_fills_.assign(
        static_cast<std::size_t>(cfg_.numSets > 0 ? cfg_.numSets : 1), 0);
    net_.attach(node_, [this](const Msg &m) { handle(m); });
}

void
Cache::Line::reset()
{
    state = LineState::Shared;
    data = 0;
    reserved = false;
    reservedUpTo = 0;
    pendingGp = false;
    pendingGpMissSeq = 0;
    gpWaiters.clear();
    lastUse = 0;
}

void
Cache::reset()
{
    slots_.reset();
    std::fill(inflight_fills_.begin(), inflight_fills_.end(), 0);
    stalled_recalls_.clear();
    stalled_ops_.clear();
    outstanding_miss_seqs_.clear();
    next_miss_seq_ = 0;
    counter_ = 0;
    reserved_.clear();
    misses_while_reserved_ = 0;
}

void
Cache::invariantFailed(const char *what, Addr addr) const
{
    throw std::logic_error(name_ + " (node " + std::to_string(node_) +
                           "), line " + std::to_string(addr) + ": " + what);
}

void
Cache::missStalled(const CacheOp &op, MissStall why)
{
    stalled_ops_.push_back(op);
    stats_.inc(stat_.stalledBy[static_cast<int>(why)]);
    stats_.inc(stat_.missStallsTotal);
    if (CoverageMap *cov = activeCoverage())
        cov->hitMissStall(why);
    if (sink_)
        emitEvent(TraceKind::MissStalled, op.addr, 0, toString(why));
}

void
Cache::emitEvent(TraceKind kind, Addr addr, std::int64_t aux,
                 const char *detail)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Cache;
    ev.kind = kind;
    ev.compId = node_;
    ev.proc = node_;
    ev.addr = addr;
    ev.aux = aux;
    ev.detail = detail;
    sink_->record(ev);
}

void
Cache::traceState(Addr addr, LineState from, LineState to)
{
    if (sink_ && from != to)
        emitEvent(TraceKind::StateChange, addr, 0,
                  transitionLabel(from, to));
}

bool
Cache::treatedAsWrite(AccessKind k) const
{
    switch (k) {
      case AccessKind::DataWrite:
      case AccessKind::SyncWrite:
      case AccessKind::SyncRmw:
        return true;
      case AccessKind::SyncRead:
        return syncReadsAsWrites_;
      case AccessKind::DataRead:
        return false;
    }
    return false;
}

bool
Cache::ordersViaReserve(AccessKind k) const
{
    if (!isSync(k))
        return false;
    // Under the Section 6 refinement, a read-only synchronization cannot
    // be used to order a processor's previous accesses, so it does not
    // reserve the line.
    if (k == AccessKind::SyncRead)
        return syncReadsAsWrites_;
    return true;
}

int
Cache::setOf(Addr addr) const
{
    return cfg_.numSets > 0 ? static_cast<int>(addr) % cfg_.numSets : 0;
}

NodeId
Cache::dirFor(Addr addr) const
{
    return dir_base_ + static_cast<NodeId>(addr) % num_dirs_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    Slot *s = slots_.find(addr);
    return s && s->valid ? &s->line : nullptr;
}

Cache::Line &
Cache::installLine(Slot &slot)
{
    slot.line.reset();
    slot.valid = true;
    return slot.line;
}

void
Cache::pokeLine(Addr addr, LineState state, Word data)
{
    Line &l = installLine(slots_.get(addr));
    l.state = state;
    l.data = data;
}

bool
Cache::peekLine(Addr addr, LineState *state, Word *data) const
{
    const Slot *s = slots_.find(addr);
    if (!s || !s->valid)
        return false;
    if (state)
        *state = s->line.state;
    if (data)
        *data = s->line.data;
    return true;
}

void
Cache::sendToDir(MsgType type, Addr addr, Word value, bool for_sync)
{
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = dirFor(addr);
    m.addr = addr;
    m.value = value;
    m.forSync = for_sync;
    net_.send(m);
}

bool
Cache::makeRoomFor(Addr addr)
{
    if (cfg_.numSets <= 0)
        return true;
    int set = setOf(addr);
    in_set_.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_.slot(i).valid && setOf(slots_.addrAt(i)) == set)
            in_set_.push_back(i);
    }
    if (static_cast<int>(in_set_.size()) + inflight_fills_[set] <
        cfg_.ways) {
        ++inflight_fills_[set];
        return true;
    }
    // Pick the least-recently-used evictable victim. Reserved lines are
    // never flushed (condition 5); lines with a pending globally-perform
    // or an open miss are transaction-locked. Slots ascend by address
    // and only a strictly older line displaces the pick, so a tie on
    // lastUse goes to the lower address.
    std::size_t victim_slot = 0;
    bool found = false;
    Tick best = 0;
    for (std::size_t i : in_set_) {
        const Slot &s = slots_.slot(i);
        if (s.line.reserved || s.line.pendingGp || s.mshrLive)
            continue;
        if (!found || s.line.lastUse < best) {
            victim_slot = i;
            best = s.line.lastUse;
            found = true;
        }
    }
    if (!found)
        return false;
    Slot &vs = slots_.slot(victim_slot);
    const Addr victim = slots_.addrAt(victim_slot);
    Line &v = vs.line;
    switch (proto_->on(v.state, LineEvent::Evict).action) {
      case LineAction::WritebackData:
        sendToDir(MsgType::PutX, victim, v.data, false);
        stats_.inc(stat_.writebacks);
        break;
      case LineAction::RelinquishClean:
        sendToDir(MsgType::PutE, victim, 0, false);
        stats_.inc(stat_.cleanRelinquishes);
        break;
      case LineAction::DropSilent:
        stats_.inc(stat_.silentDrops);
        break;
      default:
        assert(false && "unexpected eviction action");
    }
    traceState(victim, v.state, LineState::Invalid);
    vs.valid = false;
    ++inflight_fills_[set];
    return true;
}

void
Cache::commitOnLine(const CacheOp &op, Line &line, bool gp_now, Tick delay)
{
    // The commit happens NOW (the value becomes dispatchable / the local
    // copy is modified); @p delay only models how long the notification
    // takes to reach the processor.
    Word read_value = line.data;
    if (writesMemory(op.kind))
        line.data = op.writeValue;
    if (useReserveBits_ && ordersViaReserve(op.kind) && counter_ > 0) {
        // The reserve covers exactly the accesses outstanding at this
        // synchronization's commit: misses numbered below next_miss_seq_.
        if (!line.reserved) {
            line.reserved = true;
            reserved_.insert(std::lower_bound(reserved_.begin(),
                                              reserved_.end(), op.addr),
                             op.addr);
            stats_.inc(stat_.reserves);
            if (sink_)
                emitEvent(TraceKind::ReserveSet, op.addr, counter_);
        }
        line.reservedUpTo = next_miss_seq_;
    }
    assert(client_);
    std::uint64_t id = op.id;
    if (!gp_now)
        line.gpWaiters.push_back(id);
    if (delay == 0) {
        client_->opCommitted(id, read_value);
        if (gp_now)
            client_->opGloballyPerformed(id);
    } else {
        eq_.scheduleAfter(delay, [this, id, read_value, gp_now] {
            client_->opCommitted(id, read_value);
            if (gp_now)
                client_->opGloballyPerformed(id);
        });
    }
}

void
Cache::access(const CacheOp &op)
{
    Slot *slot = slots_.find(op.addr);
    Line *l = slot && slot->valid ? &slot->line : nullptr;
    if (l)
        l->lastUse = eq_.now();
    bool as_write = treatedAsWrite(op.kind);

    // Classify against the protocol table: an absent line is Invalid.
    const LineTransition &t =
        proto_->on(l ? l->state : LineState::Invalid,
                   as_write ? LineEvent::Store : LineEvent::Load);

    // Hits. Reads commit and are globally performed when the value is
    // bound; a write landing on a line that still awaits a write-ack for
    // an earlier write becomes globally performed with that ack. A store
    // on a clean-exclusive line upgrades silently — a hit with no
    // coherence traffic (MESI-family E payoff).
    if (t.action == LineAction::Hit ||
        t.action == LineAction::SilentUpgrade) {
        stats_.inc(stat_.hits);
        if (t.action == LineAction::SilentUpgrade) {
            stats_.inc(stat_.silentUpgrades);
            traceState(op.addr, l->state, t.next);
            l->state = t.next;
        }
        if (sink_)
            emitEvent(TraceKind::Hit, op.addr);
        bool gp_now = as_write ? !l->pendingGp : true;
        commitOnLine(op, *l, gp_now, kHitLatency);
        return;
    }

    // Misses (including upgrades). Processors order same-address
    // accesses (condition 1), so a second miss to a line with an MSHR
    // outstanding should not happen; if one slips through anyway, stall
    // it until the fill rather than clobbering the live MSHR.
    if (slot && slot->mshrLive) {
        assert(false && "processor must order same-address accesses");
        missStalled(op, MissStall::MshrConflict);
        return;
    }

    // Section 5.3: bound the misses sent while a line is reserved, so a
    // stalled remote synchronization is serviced after a bounded number
    // of counter increments.
    if (cfg_.maxMissesWhileReserved >= 0 && anyReserved() &&
        misses_while_reserved_ >= cfg_.maxMissesWhileReserved) {
        missStalled(op, MissStall::ReserveBound);
        return;
    }

    bool upgrade = t.action == LineAction::IssueUpgrade;
    if (!upgrade) {
        if (!makeRoomFor(op.addr)) {
            missStalled(op, MissStall::Eviction);
            return;
        }
    }

    ++counter_;
    if (sink_) {
        emitEvent(TraceKind::Miss, op.addr, 0,
                  upgrade ? "upgrade" : (as_write ? "write" : "read"));
        emitEvent(TraceKind::CounterInc, op.addr, counter_);
    }
    stats_.maxOf(stat_.counterMax, static_cast<std::uint64_t>(counter_));
    if (anyReserved())
        ++misses_while_reserved_;
    stats_.inc(stat_.misses);

    Mshr m;
    m.seq = next_miss_seq_++;
    outstanding_miss_seqs_.push_back(m.seq);
    m.op = op;
    switch (t.action) {
      case LineAction::IssueUpgrade:
        m.sent = MsgType::Upgrade;
        break;
      case LineAction::IssueGetX:
        m.sent = MsgType::GetX;
        break;
      case LineAction::IssueGetS:
        m.sent = MsgType::GetS;
        break;
      default:
        assert(false && "access classified neither hit nor miss");
    }
    Slot &s = slot ? *slot : slots_.get(op.addr);
    s.mshr = m;
    s.mshrLive = true;
    sendToDir(m.sent, op.addr, 0, isSync(op.kind));
}

void
Cache::handle(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::Data:
      case MsgType::DataE:
      case MsgType::DataEx:
      case MsgType::UpgradeAck:
        handleFill(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Recall:
      case MsgType::RecallInv:
        handleRecall(msg);
        break;
      case MsgType::WriteAck:
        handleWriteAck(msg);
        break;
      case MsgType::PutAck:
        stats_.inc(stat_.putacks);
        break;
      default:
        assert(false && "unexpected message at cache");
    }
}

void
Cache::handleFill(const Msg &msg)
{
    Slot *slot = slots_.find(msg.addr);
    if (!slot || !slot->mshrLive)
        invariantFailed("fill without MSHR", msg.addr);
    const Mshr m = slot->mshr;
    slot->mshrLive = false;

    if (m.sent != MsgType::Upgrade) {
        int set = setOf(msg.addr);
        if (cfg_.numSets > 0 && inflight_fills_[set] > 0)
            --inflight_fills_[set];
    }

    switch (msg.type) {
      case MsgType::Data: {
        if (m.sent == MsgType::GetS) {
            // Read miss completes: line arrives shared (Forward under
            // MESIF — the most recent requester is the designated
            // responder).
            Line &l = installLine(*slot);
            l.state =
                proto_->on(LineState::Invalid, LineEvent::FillShared).next;
            l.data = msg.value;
            l.lastUse = eq_.now();
            traceState(msg.addr, LineState::Invalid, l.state);
            commitOnLine(m.op, l, true);
            decrementCounter(m.seq);
        } else {
            // Write/sync miss on a previously-shared line: the directory
            // forwarded the line in parallel with invalidations. Commit
            // now; globally performed at the WriteAck.
            Line &l = installLine(*slot);
            l.state = proto_->on(LineState::Invalid, LineEvent::FillModified)
                          .next;
            l.data = msg.value;
            l.pendingGp = true;
            l.pendingGpMissSeq = m.seq;
            l.lastUse = eq_.now();
            traceState(msg.addr, LineState::Invalid, l.state);
            commitOnLine(m.op, l, false);
            // Counter decremented by the WriteAck.
        }
        break;
      }
      case MsgType::DataE: {
        // Clean-exclusive fill (read miss, no other copies): globally
        // performed immediately; a later store upgrades silently.
        Line &l = installLine(*slot);
        l.state =
            proto_->on(LineState::Invalid, LineEvent::FillExclusive).next;
        l.data = msg.value;
        l.lastUse = eq_.now();
        traceState(msg.addr, LineState::Invalid, l.state);
        commitOnLine(m.op, l, true);
        decrementCounter(m.seq);
        break;
      }
      case MsgType::DataEx: {
        // Exclusive data, no invalidations outstanding: commit and
        // globally performed together.
        Line &l = installLine(*slot);
        l.state =
            proto_->on(LineState::Invalid, LineEvent::FillModified).next;
        l.data = msg.value;
        l.lastUse = eq_.now();
        traceState(msg.addr, LineState::Invalid, l.state);
        commitOnLine(m.op, l, true);
        decrementCounter(m.seq);
        break;
      }
      case MsgType::UpgradeAck: {
        if (!slot->valid)
            invariantFailed("upgrade ack without a line", msg.addr);
        Line *l = &slot->line;
        // Throws if the line is not in a shared-family state.
        LineState next =
            proto_->on(l->state, LineEvent::UpgradeOwnership).next;
        traceState(msg.addr, l->state, next);
        l->state = next;
        l->lastUse = eq_.now();
        if (msg.ackCount > 0) {
            l->pendingGp = true;
            l->pendingGpMissSeq = m.seq;
            commitOnLine(m.op, *l, false);
        } else {
            commitOnLine(m.op, *l, true);
            decrementCounter(m.seq);
        }
        break;
      }
      default:
        assert(false);
    }
    retryStalled();
}

void
Cache::handleInv(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    if (l) {
        // Throws if an owner state gets an Inv (the directory recalls
        // owners; only shared-family copies are invalidated).
        const LineTransition &t =
            proto_->on(l->state, LineEvent::Invalidate);
        assert(t.action == LineAction::AckInvalidate);
        assert(!l->reserved && "shared lines are never reserved");
        traceState(msg.addr, l->state, t.next);
        eraseLine(msg.addr);
        stats_.inc(stat_.invalidations);
        if (sink_)
            emitEvent(TraceKind::InvApplied, msg.addr);
    } else {
        stats_.inc(stat_.staleInvalidations);
        if (sink_)
            emitEvent(TraceKind::InvApplied, msg.addr, 0, "stale");
    }
    Msg ack;
    ack.type = MsgType::InvAck;
    ack.src = node_;
    ack.dst = msg.src;
    ack.addr = msg.addr;
    if (cfg_.invApplyDelay > 0) {
        eq_.scheduleAfter(cfg_.invApplyDelay, [this, ack] {
            if (sink_)
                emitEvent(TraceKind::InvAcked, ack.addr);
            net_.send(ack);
        });
    } else {
        if (sink_)
            emitEvent(TraceKind::InvAcked, ack.addr);
        net_.send(ack);
    }
}

void
Cache::handleRecall(const Msg &msg)
{
    LineEvent ev = msg.type == MsgType::Recall ? LineEvent::FwdGetS
                                               : LineEvent::FwdGetX;
    Line *l = findLine(msg.addr);
    if (!l || !proto_->legal(l->state, ev)) {
        // The line was written back; the PutX is ahead of this response
        // on the FIFO channel to the directory.
        Msg nack;
        nack.type = MsgType::RecallNack;
        nack.src = node_;
        nack.dst = msg.src;
        nack.addr = msg.addr;
        net_.send(nack);
        stats_.inc(stat_.recallNacks);
        return;
    }
    if (l->reserved) {
        // Condition 5: a synchronization (or any) request routed to a
        // reserved line is stalled until the counter reads zero.
        stalled_recalls_.push_back(msg);
        stats_.inc(stat_.recallsQueued);
        if (sink_)
            emitEvent(TraceKind::RecallQueued, msg.addr);
        return;
    }
    serviceRecall(msg);
}

void
Cache::serviceRecall(const Msg &msg)
{
    LineEvent ev = msg.type == MsgType::Recall ? LineEvent::FwdGetS
                                               : LineEvent::FwdGetX;
    Line *l = findLine(msg.addr);
    if (!l || !proto_->legal(l->state, ev)) {
        Msg nack;
        nack.type = MsgType::RecallNack;
        nack.src = node_;
        nack.dst = msg.src;
        nack.addr = msg.addr;
        net_.send(nack);
        return;
    }
    assert(!l->pendingGp &&
           "directory serialization forbids recalling a non-GP line");
    const LineTransition &t = proto_->on(l->state, ev);
    Msg resp;
    resp.src = node_;
    resp.dst = msg.src;
    resp.addr = msg.addr;
    resp.value = l->data;
    switch (t.action) {
      case LineAction::RespondData:
        traceState(msg.addr, l->state, t.next);
        l->state = t.next;
        resp.type = MsgType::RecallData;
        break;
      case LineAction::RespondDataOwned:
        // MOESI: the dirty line stays owned; sharers read the
        // forwarded copy and this cache still writes back on eviction.
        traceState(msg.addr, l->state, t.next);
        l->state = t.next;
        resp.type = MsgType::RecallDataOwned;
        break;
      case LineAction::RespondDataInv:
        traceState(msg.addr, l->state, LineState::Invalid);
        eraseLine(msg.addr);
        resp.type = MsgType::RecallInvData;
        break;
      default:
        assert(false && "unexpected recall action");
    }
    stats_.inc(stat_.recallsServiced);
    if (sink_)
        emitEvent(TraceKind::RecallServiced, msg.addr);
    net_.send(resp);
}

void
Cache::handleWriteAck(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    if (!l || !l->pendingGp)
        invariantFailed("write ack without a pending write", msg.addr);
    l->pendingGp = false;
    const std::uint64_t miss_seq = l->pendingGpMissSeq;
    // Copy rather than swap, so each line keeps its own storage.
    gp_buf_.assign(l->gpWaiters.begin(), l->gpWaiters.end());
    l->gpWaiters.clear();
    for (std::uint64_t id : gp_buf_)
        client_->opGloballyPerformed(id);
    gp_buf_.clear();
    decrementCounter(miss_seq);
}

void
Cache::decrementCounter(std::uint64_t miss_seq)
{
    assert(counter_ > 0);
    --counter_;
    if (sink_)
        emitEvent(TraceKind::CounterDec, kNoTraceAddr, counter_);
    auto seq = std::lower_bound(outstanding_miss_seqs_.begin(),
                                outstanding_miss_seqs_.end(), miss_seq);
    if (seq != outstanding_miss_seqs_.end() && *seq == miss_seq)
        outstanding_miss_seqs_.erase(seq);
    updateReservations();
    if (counter_ == 0)
        onCounterZero();
}

void
Cache::updateReservations()
{
    if (reserved_.empty())
        return;
    // A reserve clears once every miss generated before its
    // synchronization committed has completed; later misses (e.g. a sync
    // miss to another lock) do not hold it — this is what makes the
    // scheme deadlock-free across multiple synchronization variables.
    std::uint64_t min_outstanding =
        outstanding_miss_seqs_.empty() ? ~std::uint64_t{0}
                                       : outstanding_miss_seqs_.front();
    if (!cfg_.epochReserveClearing && !outstanding_miss_seqs_.empty()) {
        // Naive mode: reserves persist until the counter reads zero.
        return;
    }
    released_.clear();
    auto kept = reserved_.begin();
    for (Addr a : reserved_) {
        Line *line = findLine(a);
        if (!line)
            invariantFailed("reserved line dropped", a);
        Line &l = *line;
        if (l.reservedUpTo <= min_outstanding) {
            l.reserved = false;
            released_.push_back(a);
            if (sink_)
                emitEvent(TraceKind::ReserveClear, a, counter_);
        } else {
            *kept++ = a;
        }
    }
    reserved_.erase(kept, reserved_.end());
    if (reserved_.empty())
        misses_while_reserved_ = 0;
    if (released_.empty())
        return;
    // Service recalls that were queued on the released lines, in arrival
    // order; the rest stay queued in the same order. serviceRecall only
    // sends, so it never queues a recall of its own meanwhile.
    recalls_buf_.swap(stalled_recalls_);
    for (const Msg &m : recalls_buf_) {
        bool freed = false;
        for (Addr a : released_) {
            if (m.addr == a)
                freed = true;
        }
        if (freed)
            serviceRecall(m);
        else
            stalled_recalls_.push_back(m);
    }
    recalls_buf_.clear();
}

void
Cache::onCounterZero()
{
    misses_while_reserved_ = 0;
    assert(reserved_.empty() &&
           "updateReservations must have cleared every reserve");
    // Any recall still queued would belong to a reserved line.
    assert(stalled_recalls_.empty());
    retryStalled();
    if (client_)
        client_->counterReadsZero();
}

void
Cache::retryStalled()
{
    if (stalled_ops_.empty())
        return;
    // access() may stall an op again (into the emptied stalled_ops_) but
    // never retries, so retry_ops_ is not reentered.
    retry_ops_.swap(stalled_ops_);
    for (const CacheOp &op : retry_ops_)
        access(op);
    retry_ops_.clear();
}

} // namespace wo
