#include "coherence/directory.hh"

#include <cassert>

#include "obs/trace_sink.hh"

namespace wo {

Directory::Directory(EventQueue &eq, Interconnect &net, StatSet &stats,
                     NodeId node, ProtocolKind protocol, std::string name)
    : eq_(eq), net_(net), stats_(stats), node_(node),
      proto_(&CoherenceProtocol::get(protocol)), name_(std::move(name))
{
    stat_.requests = stats_.handle(name_ + ".requests");
    stat_.queued = stats_.handle(name_ + ".queued");
    stat_.recallNacks = stats_.handle(name_ + ".recall_nacks");
    stat_.writebacks = stats_.handle(name_ + ".writebacks");
    stat_.cleanRelinquishes =
        stats_.handle(name_ + ".clean_relinquishes");
    stat_.invalidations = stats_.handle(name_ + ".invalidations");
    stat_.recalls = stats_.handle(name_ + ".recalls");
    stat_.exclusiveGrants = stats_.handle(name_ + ".exclusive_grants");
    stat_.forwardRecalls = stats_.handle(name_ + ".forward_recalls");
    net_.attach(node_, [this](const Msg &m) { handle(m); });
}

void
Directory::poke(Addr addr, Word value)
{
    lineOf(addr).mem = value;
}

void
Directory::Line::reset()
{
    st = St::Uncached;
    sharers.clear();
    owner = -1;
    forwarder = -1;
    mem = 0;
    busy = false;
    cur = Msg{};
    pendingInvAcks = 0;
    waitingRecall = false;
    dataSent = false;
    waiting.clear();
}

void
Directory::pokeShared(Addr addr, const NodeSet &sharers)
{
    Line &l = lineOf(addr);
    l.st = sharers.empty() ? St::Uncached : St::Shared;
    l.sharers = sharers;
    l.owner = -1;
    l.forwarder = -1;
}

Word
Directory::peek(Addr addr) const
{
    const Line *l = lines_.find(addr);
    return l ? l->mem : 0;
}

bool
Directory::idle() const
{
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &l = lines_.slot(i);
        if (l.busy || !l.waiting.empty())
            return false;
    }
    return true;
}

Directory::LineAudit
Directory::audit(Addr addr) const
{
    LineAudit a;
    const Line *l = lines_.find(addr);
    if (!l)
        return a;
    a.known = true;
    a.exclusive = l->st == St::Exclusive;
    a.shared = l->st == St::Shared;
    a.owned = l->st == St::Owned;
    a.owner = l->owner;
    a.forwarder = l->forwarder;
    a.sharers = l->sharers;
    a.busy = l->busy;
    return a;
}

Directory::Line &
Directory::lineOf(Addr addr)
{
    return lines_.get(addr);
}

void
Directory::emitEvent(TraceKind kind, Addr addr, NodeId dst)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Dir;
    ev.kind = kind;
    ev.compId = node_;
    ev.src = node_;
    ev.dst = dst;
    ev.addr = addr;
    sink_->record(ev);
}

void
Directory::sendTo(NodeId dst, MsgType type, Addr addr, Word value,
                  bool for_sync)
{
    if (sink_) {
        if (type == MsgType::Inv)
            emitEvent(TraceKind::InvSent, addr, dst);
        else if (type == MsgType::Recall || type == MsgType::RecallInv)
            emitEvent(TraceKind::RecallSent, addr, dst);
    }
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = dst;
    m.addr = addr;
    m.value = value;
    m.forSync = for_sync;
    net_.send(m);
}

void
Directory::reply(const Msg &req, MsgType type, Word value, int ack_count)
{
    if (sink_ && type == MsgType::WriteAck)
        emitEvent(TraceKind::WriteAckSent, req.addr, req.src);
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = req.src;
    m.addr = req.addr;
    m.value = value;
    m.reqId = req.reqId;
    m.ackCount = ack_count;
    m.forSync = req.forSync;
    net_.send(m);
}

void
Directory::handle(const Msg &msg)
{
    // Model the directory's processing latency; fixed delay preserves
    // arrival order.
    Msg m = msg;
    eq_.scheduleAfter(kLatency, [this, m] { process(m); });
}

void
Directory::process(const Msg &msg)
{
    Line &line = lineOf(msg.addr);
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Upgrade:
        stats_.inc(stat_.requests);
        if (line.busy) {
            line.waiting.push_back(msg);
            stats_.inc(stat_.queued);
        } else {
            startRequest(line, msg);
        }
        break;

      case MsgType::InvAck:
        assert(line.busy && line.pendingInvAcks > 0 &&
               "stray invalidation ack");
        if (--line.pendingInvAcks == 0) {
            // An Owned write also waits on the owner's recall response;
            // whichever of the two finishes last completes the write.
            if (!line.waitingRecall)
                finishWrite(line);
        }
        break;

      case MsgType::RecallData:
        assert(line.busy && line.waitingRecall);
        line.waitingRecall = false;
        line.mem = msg.value;
        if (line.st == St::Shared) {
            // MESIF: the forwarder serviced the read and demoted F->S;
            // the requester becomes the new forwarder.
            line.sharers.insert(line.cur.src);
            line.forwarder = line.cur.src;
            reply(line.cur, MsgType::Data, line.mem);
            completeTransaction(line);
        } else {
            // The owner (clean-E or dirty-M) demoted itself to Shared.
            line.st = St::Shared;
            line.sharers.clear();
            line.sharers.insert(msg.src);
            line.sharers.insert(line.cur.src);
            line.owner = -1;
            line.forwarder =
                proto().usesForward() ? line.cur.src : NodeId{-1};
            reply(line.cur, MsgType::Data, line.mem);
            completeTransaction(line);
        }
        break;

      case MsgType::RecallDataOwned:
        // MOESI: the owner keeps the dirty line (M->O or O->O) and
        // forwarded the data; memory is refreshed but the owner still
        // writes back on eviction.
        assert(line.busy && line.waitingRecall);
        assert(line.cur.type == MsgType::GetS &&
               "ownership is only retained across read recalls");
        line.waitingRecall = false;
        line.mem = msg.value;
        line.st = St::Owned;
        line.owner = msg.src;
        line.sharers.insert(line.cur.src);
        reply(line.cur, MsgType::Data, line.mem);
        completeTransaction(line);
        break;

      case MsgType::RecallInvData:
        assert(line.busy && line.waitingRecall);
        line.waitingRecall = false;
        line.mem = msg.value;
        completeRecalledOwnerGone(line);
        break;

      case MsgType::RecallNack:
        // The holder's writeback overtook our recall; the PutX/PutE
        // (FIFO-ahead of this nack) already completed that transaction.
        // A new recall may already be pending — necessarily to a
        // different holder.
        assert(!(line.waitingRecall &&
                 (line.owner == msg.src || line.forwarder == msg.src)) &&
               "recall nack from the holder we are waiting on");
        stats_.inc(stat_.recallNacks);
        break;

      case MsgType::PutX:
        if (line.busy && line.waitingRecall && line.owner == msg.src) {
            // Writeback raced with our recall: use it as the recall
            // response; the owner gave up its copy.
            line.waitingRecall = false;
            line.mem = msg.value;
            sendTo(msg.src, MsgType::PutAck, msg.addr);
            completeRecalledOwnerGone(line);
        } else if (line.st == St::Owned && line.owner == msg.src) {
            // MOESI owner evicts its dirty-shared line; the remaining
            // sharers keep clean copies of the same value.
            line.mem = msg.value;
            line.owner = -1;
            line.st = line.sharers.empty() ? St::Uncached : St::Shared;
            sendTo(msg.src, MsgType::PutAck, msg.addr);
            stats_.inc(stat_.writebacks);
        } else {
            assert(line.st == St::Exclusive && line.owner == msg.src &&
                   "writeback from a non-owner");
            line.st = St::Uncached;
            line.owner = -1;
            line.mem = msg.value;
            sendTo(msg.src, MsgType::PutAck, msg.addr);
            stats_.inc(stat_.writebacks);
        }
        break;

      case MsgType::PutE:
        // A clean exclusive (E) or forward (F) copy was relinquished:
        // no data moves, memory is already current.
        if (line.busy && line.waitingRecall && line.owner == msg.src) {
            // Our recall raced with the relinquish; complete from
            // memory as if the recall found no copy.
            line.waitingRecall = false;
            sendTo(msg.src, MsgType::PutAck, msg.addr);
            stats_.inc(stat_.cleanRelinquishes);
            completeRecalledOwnerGone(line);
        } else if (line.busy && line.waitingRecall &&
                   line.st == St::Shared && line.forwarder == msg.src) {
            // The forwarder we recalled for a read gave up its copy:
            // serve the read from memory; the requester becomes the
            // new forwarder.
            line.waitingRecall = false;
            line.sharers.erase(msg.src);
            sendTo(msg.src, MsgType::PutAck, msg.addr);
            stats_.inc(stat_.cleanRelinquishes);
            line.sharers.insert(line.cur.src);
            line.forwarder = line.cur.src;
            reply(line.cur, MsgType::Data, line.mem);
            completeTransaction(line);
        } else {
            if (line.st == St::Exclusive && line.owner == msg.src) {
                line.st = St::Uncached;
                line.owner = -1;
            } else {
                line.sharers.erase(msg.src);
                if (line.forwarder == msg.src)
                    line.forwarder = -1;
                if (!line.busy && line.st == St::Shared &&
                    line.sharers.empty()) {
                    line.st = St::Uncached;
                }
            }
            sendTo(msg.src, MsgType::PutAck, msg.addr);
            stats_.inc(stat_.cleanRelinquishes);
        }
        break;

      default:
        assert(false && "unexpected message at directory");
    }
}

void
Directory::startRequest(Line &line, const Msg &msg)
{
    if (msg.type == MsgType::GetS) {
        startGetS(line, msg);
    } else if (msg.type == MsgType::GetX) {
        startGetX(line, msg);
    } else {
        // Upgrade: honored for a sharer of a Shared line or the owner
        // of an Owned line (its sharers just need invalidating);
        // otherwise (the copy was invalidated while the upgrade was in
        // flight, or a non-owner wants a dirty-shared line) fall back
        // to the full GetX path — the requester's MSHR accepts either
        // response.
        bool honored =
            (line.st == St::Shared && line.sharers.contains(msg.src)) ||
            (line.st == St::Owned && line.owner == msg.src);
        if (honored) {
            line.forwarder = -1;
            if (line.sharers.size() ==
                (line.sharers.contains(msg.src) ? 1 : 0)) {
                line.st = St::Exclusive;
                line.owner = msg.src;
                line.sharers.clear();
                reply(msg, MsgType::UpgradeAck, 0, 0);
            } else {
                startUpgradeInvs(line, msg);
            }
        } else {
            startGetX(line, msg);
        }
    }
}

void
Directory::startUpgradeInvs(Line &line, const Msg &msg)
{
    // Every sharer but the upgrader is invalidated, in ascending node
    // order; the sharer list itself is rewritten by finishWrite.
    const int others = line.sharers.size() -
                       (line.sharers.contains(msg.src) ? 1 : 0);
    line.busy = true;
    line.cur = msg;
    line.pendingInvAcks = others;
    reply(msg, MsgType::UpgradeAck, 0, others);
    line.sharers.forEach([&](NodeId n) {
        if (n != msg.src)
            sendTo(n, MsgType::Inv, msg.addr);
    });
    stats_.inc(stat_.invalidations, static_cast<std::uint64_t>(others));
}

void
Directory::startGetS(Line &line, const Msg &msg)
{
    switch (line.st) {
      case St::Uncached:
        if (proto().grantsExclusiveClean()) {
            // MESI-family: nobody else caches the line, so grant it
            // clean-exclusive — a later store upgrades silently.
            line.st = St::Exclusive;
            line.owner = msg.src;
            reply(msg, MsgType::DataE, line.mem);
            stats_.inc(stat_.exclusiveGrants);
            break;
        }
        line.st = St::Shared;
        line.sharers.insert(msg.src);
        reply(msg, MsgType::Data, line.mem);
        break;
      case St::Shared:
        if (proto().usesForward() && line.forwarder != -1 &&
            line.forwarder != msg.src) {
            // MESIF: the designated forwarder services the read (and
            // demotes to plain Shared); the requester takes over as
            // forwarder when the data arrives.
            line.busy = true;
            line.cur = msg;
            line.waitingRecall = true;
            sendTo(line.forwarder, MsgType::Recall, msg.addr, 0,
                   msg.forSync);
            stats_.inc(stat_.recalls);
            stats_.inc(stat_.forwardRecalls);
            break;
        }
        line.st = St::Shared;
        line.sharers.insert(msg.src);
        if (proto().usesForward())
            line.forwarder = msg.src;
        reply(msg, MsgType::Data, line.mem);
        break;
      case St::Exclusive:
        assert(line.owner != msg.src && "owner re-requesting its line");
        line.busy = true;
        line.cur = msg;
        line.waitingRecall = true;
        sendTo(line.owner, MsgType::Recall, msg.addr, 0, msg.forSync);
        stats_.inc(stat_.recalls);
        break;
      case St::Owned:
        assert(line.owner != msg.src && "owner re-requesting its line");
        line.busy = true;
        line.cur = msg;
        line.waitingRecall = true;
        sendTo(line.owner, MsgType::Recall, msg.addr, 0, msg.forSync);
        stats_.inc(stat_.recalls);
        break;
    }
}

void
Directory::startGetX(Line &line, const Msg &msg)
{
    switch (line.st) {
      case St::Uncached:
        line.st = St::Exclusive;
        line.owner = msg.src;
        reply(msg, MsgType::DataEx, line.mem);
        break;
      case St::Shared: {
        line.sharers.erase(msg.src); // defensive: requester's copy is gone
        line.forwarder = -1;
        if (line.sharers.empty()) {
            line.st = St::Exclusive;
            line.owner = msg.src;
            reply(msg, MsgType::DataEx, line.mem);
            break;
        }
        // The paper's protocol: forward the line in parallel with the
        // invalidations; the final WriteAck marks global performance.
        line.busy = true;
        line.cur = msg;
        line.pendingInvAcks = line.sharers.size();
        reply(msg, MsgType::Data, line.mem);
        line.sharers.forEach(
            [&](NodeId n) { sendTo(n, MsgType::Inv, msg.addr); });
        stats_.inc(stat_.invalidations,
                   static_cast<std::uint64_t>(line.pendingInvAcks));
        break;
      }
      case St::Exclusive:
        assert(line.owner != msg.src && "owner re-requesting its line");
        line.busy = true;
        line.cur = msg;
        line.waitingRecall = true;
        sendTo(line.owner, MsgType::RecallInv, msg.addr, 0, msg.forSync);
        stats_.inc(stat_.recalls);
        break;
      case St::Owned: {
        // MOESI write to a dirty-shared line: recall the owner's data
        // AND invalidate the sharers, in parallel. The write completes
        // when both the recall response and every ack are in.
        assert(line.owner != msg.src && "owner re-requesting its line");
        line.busy = true;
        line.cur = msg;
        line.waitingRecall = true;
        line.dataSent = false;
        sendTo(line.owner, MsgType::RecallInv, msg.addr, 0, msg.forSync);
        stats_.inc(stat_.recalls);
        line.sharers.erase(msg.src);
        line.forwarder = -1;
        line.pendingInvAcks = line.sharers.size();
        line.sharers.forEach(
            [&](NodeId n) { sendTo(n, MsgType::Inv, msg.addr); });
        if (line.pendingInvAcks > 0)
            stats_.inc(stat_.invalidations,
                       static_cast<std::uint64_t>(line.pendingInvAcks));
        break;
      }
    }
}

void
Directory::finishWrite(Line &line)
{
    // All invalidations acknowledged: the write is globally performed.
    line.st = St::Exclusive;
    line.owner = line.cur.src;
    line.sharers.clear();
    line.forwarder = -1;
    reply(line.cur, MsgType::WriteAck, 0);
    completeTransaction(line);
}

void
Directory::completeRecalledOwnerGone(Line &line)
{
    const Msg &req = line.cur;
    if (req.type == MsgType::GetS) {
        if (proto().grantsExclusiveClean()) {
            // The recalled copy is gone, so the reader is alone: grant
            // clean-exclusive, as for an uncached line.
            line.st = St::Exclusive;
            line.owner = req.src;
            line.sharers.clear();
            line.forwarder = -1;
            reply(req, MsgType::DataE, line.mem);
            stats_.inc(stat_.exclusiveGrants);
        } else {
            line.st = St::Shared;
            line.sharers.clear();
            line.sharers.insert(req.src);
            line.owner = -1;
            reply(req, MsgType::Data, line.mem);
        }
        completeTransaction(line);
    } else if (line.pendingInvAcks > 0) {
        // Owned write: the owner's copy is gone but sharer
        // invalidations are still outstanding. Forward the line now
        // (the write commits); the last ack sends the WriteAck.
        line.dataSent = true;
        reply(req, MsgType::Data, line.mem);
    } else {
        // GetX or demoted Upgrade: ownership transfers wholesale; no
        // invalidations remain, so the write is globally performed on
        // arrival of the exclusive line.
        line.st = St::Exclusive;
        line.owner = req.src;
        line.sharers.clear();
        line.forwarder = -1;
        reply(req, MsgType::DataEx, line.mem);
        completeTransaction(line);
    }
}

void
Directory::completeTransaction(Line &line)
{
    line.busy = false;
    line.pendingInvAcks = 0;
    line.waitingRecall = false;
    line.dataSent = false;
    while (!line.busy && !line.waiting.empty()) {
        Msg next = line.waiting.front();
        line.waiting.pop_front();
        startRequest(line, next);
    }
}

} // namespace wo
