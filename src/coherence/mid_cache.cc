#include "coherence/mid_cache.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace_sink.hh"

namespace wo {

MidCache::MidCache(EventQueue &eq, Interconnect &net, StatSet &stats,
                   NodeId node, NodeId inner, NodeId dir_base, int num_dirs,
                   ProtocolKind protocol, const MidCacheConfig &cfg,
                   std::string name)
    : eq_(eq), net_(net), stats_(stats), node_(node), inner_(inner),
      dir_base_(dir_base), num_dirs_(num_dirs), cfg_(cfg),
      proto_(&CoherenceProtocol::get(protocol)), name_(std::move(name))
{
    stat_.hits = stats_.handle(name_ + ".hits");
    stat_.misses = stats_.handle(name_ + ".misses");
    stat_.writebacks = stats_.handle(name_ + ".writebacks");
    stat_.cleanRelinquishes =
        stats_.handle(name_ + ".clean_relinquishes");
    stat_.silentDrops = stats_.handle(name_ + ".silent_drops");
    stat_.exclusiveGrants = stats_.handle(name_ + ".exclusive_grants");
    stat_.probesForwarded = stats_.handle(name_ + ".probes_forwarded");
    stat_.innerInvs = stats_.handle(name_ + ".inner_invs");
    stat_.evictStalls = stats_.handle(name_ + ".evict_stalls");
    stat_.putacks = stats_.handle(name_ + ".putacks");
    inflight_fills_.assign(
        static_cast<std::size_t>(cfg_.numSets > 0 ? cfg_.numSets : 1), 0);
    net_.attach(node_, [this](const Msg &m) { handle(m); });
}

void
MidCache::Line::reset()
{
    st = LineState::Shared;
    inner = InnerSt::None;
    data = 0;
    pendingGp = false;
    probe = Probe::None;
    deferredProbes.clear();
    lastUse = 0;
}

void
MidCache::invariantFailed(const char *what, Addr addr) const
{
    throw std::logic_error(name_ + " (node " + std::to_string(node_) +
                           "), line " + std::to_string(addr) + ": " + what);
}

void
MidCache::emitEvent(TraceKind kind, Addr addr, std::int64_t aux,
                    const char *detail)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Cache;
    ev.kind = kind;
    ev.compId = node_;
    ev.proc = inner_;
    ev.addr = addr;
    ev.aux = aux;
    ev.level = 2; // exporters label L2 traffic distinctly from the L1s
    ev.detail = detail;
    sink_->record(ev);
}

void
MidCache::traceState(Addr addr, LineState from, LineState to)
{
    if (sink_ && from != to)
        emitEvent(TraceKind::StateChange, addr, 0,
                  transitionLabel(from, to));
}

int
MidCache::setOf(Addr addr) const
{
    return cfg_.numSets > 0 ? static_cast<int>(addr) % cfg_.numSets : 0;
}

NodeId
MidCache::dirFor(Addr addr) const
{
    return dir_base_ + static_cast<NodeId>(addr) % num_dirs_;
}

MidCache::Line *
MidCache::findLine(Addr addr)
{
    Slot *s = slots_.find(addr);
    return s && s->valid ? &s->line : nullptr;
}

MidCache::Line &
MidCache::installLine(Slot &slot)
{
    slot.line.reset();
    slot.valid = true;
    return slot.line;
}

void
MidCache::openMshr(Addr addr, MsgType sent, const Msg &inner)
{
    Slot &s = slots_.get(addr);
    s.mshr = Mshr{sent, inner};
    s.mshrLive = true;
    ++live_mshrs_;
}

void
MidCache::pokeLine(Addr addr, LineState state, Word data, bool inner_shared)
{
    Line &l = installLine(slots_.get(addr));
    l.st = state;
    l.inner = inner_shared ? InnerSt::Shared : InnerSt::None;
    l.data = data;
}

bool
MidCache::peekLine(Addr addr, LineState *state, Word *data) const
{
    const Slot *s = slots_.find(addr);
    if (!s || !s->valid)
        return false;
    if (state)
        *state = s->line.st;
    if (data)
        *data = s->line.data;
    return true;
}

void
MidCache::reset()
{
    slots_.reset();
    live_mshrs_ = 0;
    std::fill(inflight_fills_.begin(), inflight_fills_.end(), 0);
    stalled_reqs_.clear();
}

bool
MidCache::idle() const
{
    if (live_mshrs_ > 0 || !stalled_reqs_.empty())
        return false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &s = slots_.slot(i);
        if (s.valid && (s.line.probe != Probe::None || s.line.pendingGp ||
                        !s.line.deferredProbes.empty()))
            return false;
    }
    return true;
}

void
MidCache::sendOut(MsgType type, const Msg &req, Word value)
{
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = dirFor(req.addr);
    m.addr = req.addr;
    m.value = value;
    m.reqId = req.reqId;
    m.forSync = req.forSync;
    net_.send(m);
}

void
MidCache::sendIn(const Msg &inner_req, MsgType type, Word value,
                 int ack_count)
{
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = inner_;
    m.addr = inner_req.addr;
    m.value = value;
    m.reqId = inner_req.reqId;
    m.ackCount = ack_count;
    m.forSync = inner_req.forSync;
    net_.send(m);
}

const char *
MidCache::probeName(Probe p)
{
    switch (p) {
      case Probe::None: return "None";
      case Probe::OuterInv: return "OuterInv";
      case Probe::RecallViaInner: return "RecallViaInner";
      case Probe::RecallInvViaInner: return "RecallInvViaInner";
      case Probe::RecallInvViaInv: return "RecallInvViaInv";
      case Probe::EvictInv: return "EvictInv";
      case Probe::EvictRecall: return "EvictRecall";
    }
    return "?";
}

void
MidCache::sendProbeIn(MsgType type, Addr addr, bool for_sync, Probe why)
{
    if (sink_) {
        // Tag the probe with its *translation* (which outer stimulus
        // or eviction produced it) — an L1 Inv and an L2 capacity
        // eviction look identical on the wire otherwise.
        if (type == MsgType::Inv)
            emitEvent(TraceKind::InvSent, addr, 0, probeName(why));
        else
            emitEvent(TraceKind::RecallSent, addr, 0, probeName(why));
    }
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = inner_;
    m.addr = addr;
    m.forSync = for_sync;
    net_.send(m);
    stats_.inc(stat_.probesForwarded);
}

void
MidCache::handle(const Msg &msg)
{
    Msg m = msg;
    eq_.scheduleAfter(kLatency, [this, m] { process(m); });
}

void
MidCache::process(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Upgrade:
        innerRequest(msg);
        break;
      case MsgType::PutX:
      case MsgType::PutE:
        innerPut(msg);
        break;
      case MsgType::InvAck:
      case MsgType::RecallData:
      case MsgType::RecallDataOwned:
      case MsgType::RecallInvData:
      case MsgType::RecallNack:
        innerProbeResponse(msg);
        break;
      case MsgType::Data:
      case MsgType::DataE:
      case MsgType::DataEx:
      case MsgType::UpgradeAck:
        outerFill(msg);
        break;
      case MsgType::WriteAck:
        outerWriteAck(msg);
        break;
      case MsgType::PutAck:
        stats_.inc(stat_.putacks);
        break;
      case MsgType::Inv:
        outerInv(msg);
        break;
      case MsgType::Recall:
      case MsgType::RecallInv:
        outerRecall(msg);
        break;
      default:
        assert(false && "unexpected message at mid-level cache");
    }
}

void
MidCache::innerRequest(const Msg &msg)
{
    Slot *slot = slots_.find(msg.addr);
    Line *l = slot && slot->valid ? &slot->line : nullptr;

    // A line mid-probe is in flux (the L1's demotion answer is in
    // flight); serving a hit now would break inclusion. Park the request
    // until the probe resolves.
    if (l && l->probe != Probe::None) {
        stalled_reqs_.push_back(msg);
        return;
    }
    if (slot && slot->mshrLive)
        invariantFailed("second L1 request while one is in flight",
                        msg.addr);

    if (msg.type == MsgType::GetS) {
        if (l) {
            stats_.inc(stat_.hits);
            l->lastUse = eq_.now();
            if ((l->st == LineState::Exclusive ||
                 l->st == LineState::Modified) &&
                proto_->grantsExclusiveClean()) {
                // Sole owner: pass exclusivity down so the L1 can
                // upgrade silently, exactly as the directory would.
                l->inner = InnerSt::Exclusive;
                stats_.inc(stat_.exclusiveGrants);
                sendIn(msg, MsgType::DataE, l->data);
            } else {
                l->inner = InnerSt::Shared;
                sendIn(msg, MsgType::Data, l->data);
            }
            return;
        }
        stats_.inc(stat_.misses);
        if (!makeRoomFor(msg.addr)) {
            stats_.inc(stat_.evictStalls);
            stalled_reqs_.push_back(msg);
            return;
        }
        openMshr(msg.addr, MsgType::GetS, msg);
        ++inflight_fills_[setOf(msg.addr)];
        sendOut(MsgType::GetS, msg, 0);
        return;
    }

    if (msg.type == MsgType::GetX) {
        if (l && (l->st == LineState::Exclusive ||
                  l->st == LineState::Modified)) {
            stats_.inc(stat_.hits);
            l->lastUse = eq_.now();
            traceState(msg.addr, l->st, LineState::Modified);
            l->st = LineState::Modified;
            l->inner = InnerSt::Exclusive;
            sendIn(msg, MsgType::DataEx, l->data);
            return;
        }
        stats_.inc(stat_.misses);
        if (l) {
            // Shared / Forward / Owned here: data is valid, only
            // ownership is missing.
            l->lastUse = eq_.now();
            openMshr(msg.addr, MsgType::Upgrade, msg);
            sendOut(MsgType::Upgrade, msg, 0);
            return;
        }
        if (!makeRoomFor(msg.addr)) {
            stats_.inc(stat_.evictStalls);
            stalled_reqs_.push_back(msg);
            return;
        }
        openMshr(msg.addr, MsgType::GetX, msg);
        ++inflight_fills_[setOf(msg.addr)];
        sendOut(MsgType::GetX, msg, 0);
        return;
    }

    // Upgrade: the L1 holds a read copy and wants ownership.
    if (l && (l->st == LineState::Exclusive ||
              l->st == LineState::Modified)) {
        stats_.inc(stat_.hits);
        l->lastUse = eq_.now();
        traceState(msg.addr, l->st, LineState::Modified);
        l->st = LineState::Modified;
        l->inner = InnerSt::Exclusive;
        sendIn(msg, MsgType::UpgradeAck, 0, 0);
        return;
    }
    stats_.inc(stat_.misses);
    if (l) {
        l->lastUse = eq_.now();
        openMshr(msg.addr, MsgType::Upgrade, msg);
        sendOut(MsgType::Upgrade, msg, 0);
        return;
    }
    // Both copies were invalidated while the L1's upgrade was in
    // flight: fall back to a full fetch; the L1's MSHR accepts a data
    // response to an upgrade.
    if (!makeRoomFor(msg.addr)) {
        stats_.inc(stat_.evictStalls);
        stalled_reqs_.push_back(msg);
        return;
    }
    openMshr(msg.addr, MsgType::GetX, msg);
    ++inflight_fills_[setOf(msg.addr)];
    sendOut(MsgType::GetX, msg, 0);
}

void
MidCache::innerPut(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    if (msg.type == MsgType::PutX) {
        // Dirty data comes home; inclusion guarantees the line exists
        // (probes absorb a racing writeback before erasing it).
        if (!l)
            invariantFailed("L1 writeback to a line the L2 does not hold",
                            msg.addr);
        assert(l->st == LineState::Exclusive ||
               l->st == LineState::Modified || l->st == LineState::Owned);
        l->data = msg.value;
        l->inner = InnerSt::None;
        if (l->st == LineState::Exclusive) {
            traceState(msg.addr, l->st, LineState::Modified);
            l->st = LineState::Modified;
        }
    } else {
        // PutE: a clean E or F copy was dropped; no data moves. The
        // line can be gone if an invalidation crossed the relinquish.
        if (l)
            l->inner = InnerSt::None;
    }
    sendIn(msg, MsgType::PutAck, 0);
    retryStalled();
}

void
MidCache::innerProbeResponse(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    assert(l && l->probe != Probe::None &&
           "probe response with no probe outstanding");
    Probe probe = l->probe;
    l->probe = Probe::None;

    switch (msg.type) {
      case MsgType::InvAck:
        if (probe == Probe::OuterInv) {
            traceState(msg.addr, l->st, LineState::Invalid);
            eraseLine(msg.addr);
            Msg ack;
            ack.addr = msg.addr;
            sendOut(MsgType::InvAck, ack, 0);
        } else if (probe == Probe::RecallInvViaInv) {
            Word v = l->data;
            traceState(msg.addr, l->st, LineState::Invalid);
            eraseLine(msg.addr);
            Msg resp;
            resp.addr = msg.addr;
            sendOut(MsgType::RecallInvData, resp, v);
        } else {
            assert(probe == Probe::EvictInv);
            l->inner = InnerSt::None;
            finishEvictProbe(msg.addr, *l);
            return; // finishEvictProbe retries
        }
        break;

      case MsgType::RecallData: {
        assert(probe == Probe::RecallViaInner);
        l->data = msg.value;
        l->inner = InnerSt::Shared;
        respondRecallFromSelf(*l, msg);
        break;
      }

      case MsgType::RecallDataOwned: {
        // MOESI: the L1 keeps the dirty line; this L2 mirrors it as
        // Owned and reports the same upward.
        assert(probe == Probe::RecallViaInner && proto_->usesOwned());
        l->data = msg.value;
        l->inner = InnerSt::Owned;
        // A dirty answer from a clean-exclusive mirror reveals an L1
        // silent E->M upgrade this L2 never saw; transition from the
        // true Modified state, not the stale E.
        if (l->st == LineState::Exclusive) {
            traceState(msg.addr, l->st, LineState::Modified);
            l->st = LineState::Modified;
        }
        const LineTransition &t =
            proto_->on(l->st, LineEvent::FwdGetS);
        assert(t.action == LineAction::RespondDataOwned);
        traceState(msg.addr, l->st, t.next);
        l->st = t.next;
        Msg resp;
        resp.addr = msg.addr;
        sendOut(MsgType::RecallDataOwned, resp, l->data);
        break;
      }

      case MsgType::RecallInvData:
        l->data = msg.value;
        l->inner = InnerSt::None;
        // The recalled copy may have been silently upgraded to M in
        // the L1; a clean-exclusive mirror must not pass the returned
        // data on as relinquishable-clean (PutE would drop it).
        if (l->st == LineState::Exclusive) {
            traceState(msg.addr, l->st, LineState::Modified);
            l->st = LineState::Modified;
        }
        if (probe == Probe::EvictRecall) {
            finishEvictProbe(msg.addr, *l);
            return;
        }
        assert(probe == Probe::RecallInvViaInner);
        {
            Word v = l->data;
            traceState(msg.addr, l->st, LineState::Invalid);
            eraseLine(msg.addr);
            Msg resp;
            resp.addr = msg.addr;
            sendOut(MsgType::RecallInvData, resp, v);
        }
        break;

      case MsgType::RecallNack:
        // The L1's writeback overtook our probe and (per-link FIFO) was
        // already absorbed above; answer from this L2's updated state.
        if (probe == Probe::RecallViaInner) {
            respondRecallFromSelf(*l, msg);
        } else if (probe == Probe::RecallInvViaInner) {
            assert(proto_->on(l->st, LineEvent::FwdGetX).action ==
                   LineAction::RespondDataInv);
            Word v = l->data;
            traceState(msg.addr, l->st, LineState::Invalid);
            eraseLine(msg.addr);
            Msg resp;
            resp.addr = msg.addr;
            sendOut(MsgType::RecallInvData, resp, v);
        } else {
            assert(probe == Probe::EvictRecall);
            finishEvictProbe(msg.addr, *l);
            return;
        }
        break;

      default:
        assert(false);
    }
    retryStalled();
}

void
MidCache::respondRecallFromSelf(Line &line, const Msg &msg)
{
    const LineTransition &t = proto_->on(line.st, LineEvent::FwdGetS);
    traceState(msg.addr, line.st, t.next);
    line.st = t.next;
    Msg resp;
    resp.addr = msg.addr;
    sendOut(t.action == LineAction::RespondDataOwned
                ? MsgType::RecallDataOwned
                : MsgType::RecallData,
            resp, line.data);
}

void
MidCache::writebackAndErase(Addr addr, Line &line)
{
    Msg req;
    req.addr = addr;
    switch (proto_->on(line.st, LineEvent::Evict).action) {
      case LineAction::WritebackData:
        sendOut(MsgType::PutX, req, line.data);
        stats_.inc(stat_.writebacks);
        break;
      case LineAction::RelinquishClean:
        sendOut(MsgType::PutE, req, 0);
        stats_.inc(stat_.cleanRelinquishes);
        break;
      case LineAction::DropSilent:
        stats_.inc(stat_.silentDrops);
        break;
      default:
        assert(false && "line state has no eviction action");
    }
    traceState(addr, line.st, LineState::Invalid);
    eraseLine(addr);
}

void
MidCache::finishEvictProbe(Addr addr, Line &line)
{
    // The inner copy is gone (or absorbed); write the line back, then
    // answer any probe that arrived mid-eviction with a nack — our
    // writeback, FIFO-ahead of it, wins the race at the directory.
    // Copy rather than swap, so each line keeps its own storage.
    deferred_buf_.assign(line.deferredProbes.begin(),
                             line.deferredProbes.end());
    line.deferredProbes.clear();
    writebackAndErase(addr, line);
    for (const Msg &p : deferred_buf_) {
        Msg resp;
        resp.addr = addr;
        if (p.type == MsgType::Inv)
            sendOut(MsgType::InvAck, resp, 0);
        else
            sendOut(MsgType::RecallNack, resp, 0);
    }
    deferred_buf_.clear();
    retryStalled();
}

bool
MidCache::makeRoomFor(Addr addr)
{
    if (cfg_.numSets <= 0)
        return true;
    int set = setOf(addr);
    int occupied = inflight_fills_[set];
    // Slots ascend by address and only a strictly older line displaces
    // a pick, so a tie on lastUse goes to the lower address.
    Addr victim = 0;
    Line *victim_line = nullptr;
    Addr demotable = 0;
    Line *demotable_line = nullptr;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &s = slots_.slot(i);
        const Addr a = slots_.addrAt(i);
        if (!s.valid || setOf(a) != set)
            continue;
        ++occupied;
        Line &l = s.line;
        if (l.probe != Probe::None || l.pendingGp ||
            !l.deferredProbes.empty() || s.mshrLive)
            continue;
        if (l.inner == InnerSt::None) {
            if (!victim_line || l.lastUse < victim_line->lastUse) {
                victim = a;
                victim_line = &l;
            }
        } else if (!demotable_line ||
                   l.lastUse < demotable_line->lastUse) {
            demotable = a;
            demotable_line = &l;
        }
    }
    if (occupied < cfg_.ways)
        return true;
    if (victim_line) {
        writebackAndErase(victim, *victim_line);
        return true;
    }
    if (demotable_line) {
        // Every candidate still lives in the L1: recall the LRU one.
        // The request stalls until the L1's answer frees the way.
        Line &l = *demotable_line;
        if (l.inner == InnerSt::Shared) {
            l.probe = Probe::EvictInv;
            stats_.inc(stat_.innerInvs);
            sendProbeIn(MsgType::Inv, demotable, false,
                        Probe::EvictInv);
        } else {
            l.probe = Probe::EvictRecall;
            sendProbeIn(MsgType::RecallInv, demotable, false,
                        Probe::EvictRecall);
        }
    }
    return false;
}

void
MidCache::retryStalled()
{
    if (stalled_reqs_.empty())
        return;
    // innerRequest may park a request again (into the emptied
    // stalled_reqs_) but never retries, so retry_reqs_ is not reentered.
    retry_reqs_.swap(stalled_reqs_);
    for (const Msg &m : retry_reqs_)
        innerRequest(m);
    retry_reqs_.clear();
}

void
MidCache::outerFill(const Msg &msg)
{
    Slot *slot = slots_.find(msg.addr);
    if (!slot || !slot->mshrLive)
        invariantFailed("fill with no request outstanding", msg.addr);
    const Mshr m = slot->mshr;
    slot->mshrLive = false;
    --live_mshrs_;
    if (m.sent != MsgType::Upgrade) {
        int &fills = inflight_fills_[setOf(msg.addr)];
        if (fills > 0)
            --fills;
    }
    Line &l = slot->valid ? slot->line : installLine(*slot);
    l.lastUse = eq_.now();

    switch (msg.type) {
      case MsgType::Data:
        if (m.inner.type == MsgType::GetS) {
            LineState next =
                proto_->on(LineState::Invalid, LineEvent::FillShared)
                    .next;
            traceState(msg.addr, LineState::Invalid, next);
            l.st = next;
            l.data = msg.value;
            l.inner = InnerSt::Shared;
            sendIn(m.inner, MsgType::Data, l.data);
        } else {
            // Write data forwarded with invalidations still in flight:
            // committed here, globally performed on the WriteAck.
            LineState next =
                proto_->on(LineState::Invalid, LineEvent::FillModified)
                    .next;
            traceState(msg.addr, LineState::Invalid, next);
            l.st = next;
            l.data = msg.value;
            l.pendingGp = true;
            l.inner = InnerSt::Exclusive;
            sendIn(m.inner, MsgType::Data, l.data);
        }
        break;

      case MsgType::DataE: {
        assert(m.inner.type == MsgType::GetS);
        LineState next =
            proto_->on(LineState::Invalid, LineEvent::FillExclusive).next;
        traceState(msg.addr, LineState::Invalid, next);
        l.st = next;
        l.data = msg.value;
        l.inner = InnerSt::Exclusive;
        sendIn(m.inner, MsgType::DataE, l.data);
        break;
      }

      case MsgType::DataEx: {
        LineState next =
            proto_->on(LineState::Invalid, LineEvent::FillModified).next;
        traceState(msg.addr, LineState::Invalid, next);
        l.st = next;
        l.data = msg.value;
        l.inner = InnerSt::Exclusive;
        sendIn(m.inner, MsgType::DataEx, l.data);
        break;
      }

      case MsgType::UpgradeAck: {
        // Our read copy (S/F/O) became ownership; data was valid here.
        LineState next =
            proto_->on(l.st, LineEvent::UpgradeOwnership).next;
        traceState(msg.addr, l.st, next);
        l.st = next;
        l.pendingGp = msg.ackCount > 0;
        l.inner = InnerSt::Exclusive;
        if (m.inner.type == MsgType::Upgrade) {
            sendIn(m.inner, MsgType::UpgradeAck, 0, msg.ackCount);
        } else {
            // The L1 asked for the full line.
            sendIn(m.inner,
                   msg.ackCount > 0 ? MsgType::Data : MsgType::DataEx,
                   l.data);
        }
        break;
      }

      default:
        assert(false);
    }
}

void
MidCache::outerWriteAck(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    if (!l || !l->pendingGp)
        invariantFailed("write-ack with no write pending", msg.addr);
    l->pendingGp = false;
    Msg fwd;
    fwd.addr = msg.addr;
    fwd.reqId = msg.reqId;
    fwd.forSync = msg.forSync;
    sendIn(fwd, MsgType::WriteAck, 0);
    retryStalled();
}

void
MidCache::outerInv(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    if (!l) {
        // Stale: we already relinquished the line.
        Msg ack;
        ack.addr = msg.addr;
        sendOut(MsgType::InvAck, ack, 0);
        return;
    }
    if (l->probe == Probe::EvictInv || l->probe == Probe::EvictRecall) {
        l->deferredProbes.push_back(msg);
        return;
    }
    assert(l->probe == Probe::None &&
           "directory sent overlapping probes for one line");
    if (l->inner == InnerSt::Shared) {
        l->probe = Probe::OuterInv;
        stats_.inc(stat_.innerInvs);
        sendProbeIn(MsgType::Inv, msg.addr, false, Probe::OuterInv);
        return;
    }
    assert(l->inner == InnerSt::None &&
           "directory invalidated a line the L1 owns");
    traceState(msg.addr, l->st, LineState::Invalid);
    eraseLine(msg.addr);
    Msg ack;
    ack.addr = msg.addr;
    sendOut(MsgType::InvAck, ack, 0);
    retryStalled();
}

void
MidCache::outerRecall(const Msg &msg)
{
    LineEvent ev = msg.type == MsgType::Recall ? LineEvent::FwdGetS
                                               : LineEvent::FwdGetX;
    Line *l = findLine(msg.addr);
    if (!l || !proto_->legal(l->st, ev)) {
        Msg nack;
        nack.addr = msg.addr;
        sendOut(MsgType::RecallNack, nack, 0);
        return;
    }
    if (l->probe == Probe::EvictInv || l->probe == Probe::EvictRecall) {
        l->deferredProbes.push_back(msg);
        return;
    }
    assert(l->probe == Probe::None &&
           "directory sent overlapping probes for one line");

    if (msg.type == MsgType::Recall) {
        if (l->inner == InnerSt::Exclusive) {
            // Current data lives in the L1; demote it first.
            l->probe = Probe::RecallViaInner;
            sendProbeIn(MsgType::Recall, msg.addr, msg.forSync,
                        Probe::RecallViaInner);
            return;
        }
        if (l->inner == InnerSt::Owned) {
            // The L1 keeps its dirty copy; our mirror is current.
            const LineTransition &t = proto_->on(l->st, ev);
            assert(t.action == LineAction::RespondDataOwned);
            traceState(msg.addr, l->st, t.next);
            l->st = t.next;
            Msg resp;
            resp.addr = msg.addr;
            sendOut(MsgType::RecallDataOwned, resp, l->data);
            return;
        }
        respondRecallFromSelf(*l, msg);
        return;
    }

    // RecallInv
    if (l->inner == InnerSt::Exclusive || l->inner == InnerSt::Owned) {
        l->probe = Probe::RecallInvViaInner;
        sendProbeIn(MsgType::RecallInv, msg.addr, msg.forSync,
                    Probe::RecallInvViaInner);
        return;
    }
    if (l->inner == InnerSt::Shared) {
        l->probe = Probe::RecallInvViaInv;
        stats_.inc(stat_.innerInvs);
        sendProbeIn(MsgType::Inv, msg.addr, false,
                    Probe::RecallInvViaInv);
        return;
    }
    assert(proto_->on(l->st, ev).action == LineAction::RespondDataInv);
    Word v = l->data;
    traceState(msg.addr, l->st, LineState::Invalid);
    eraseLine(msg.addr);
    Msg resp;
    resp.addr = msg.addr;
    sendOut(MsgType::RecallInvData, resp, v);
    retryStalled();
}

} // namespace wo
