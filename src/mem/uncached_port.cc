#include "mem/uncached_port.hh"

#include <algorithm>
#include <cassert>

#include "obs/trace_sink.hh"

namespace wo {

UncachedPort::UncachedPort(EventQueue &eq, Interconnect &net, StatSet &stats,
                           NodeId node, NodeId mem_base, int num_mods,
                           std::string name)
    : eq_(eq), net_(net), stats_(stats), node_(node), mem_base_(mem_base),
      num_mods_(num_mods), name_(std::move(name))
{
    stat_requests_ = stats_.handle(name_ + ".requests");
    net_.attach(node_, [this](const Msg &m) { handle(m); });
}

void
UncachedPort::emitEvent(TraceKind kind, const CacheOp &op, NodeId peer)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Port;
    ev.kind = kind;
    ev.compId = node_;
    ev.proc = node_;
    ev.src = kind == TraceKind::PortRequest ? node_ : peer;
    ev.dst = kind == TraceKind::PortRequest ? peer : node_;
    ev.addr = op.addr;
    ev.opId = op.id;
    sink_->record(ev);
}

void
UncachedPort::request(const CacheOp &op)
{
    Msg m;
    m.src = node_;
    m.dst = mem_base_ + static_cast<NodeId>(op.addr) % num_mods_;
    m.addr = op.addr;
    m.reqId = op.id;
    m.forSync = isSync(op.kind);
    switch (op.kind) {
      case AccessKind::DataRead:
      case AccessKind::SyncRead:
        m.type = MsgType::MemReadReq;
        break;
      case AccessKind::DataWrite:
      case AccessKind::SyncWrite:
        m.type = MsgType::MemWriteReq;
        m.value = op.writeValue;
        break;
      case AccessKind::SyncRmw:
        m.type = MsgType::MemRmwReq;
        m.value = op.writeValue;
        break;
    }
    pending_.push_back(op);
    stats_.inc(stat_requests_);
    if (sink_)
        emitEvent(TraceKind::PortRequest, op, m.dst);
    net_.send(m);
}

void
UncachedPort::handle(const Msg &msg)
{
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [&](const CacheOp &p) { return p.id == msg.reqId; });
    assert(it != pending_.end() && "response without a pending request");
    CacheOp op = *it;
    pending_.erase(it);
    assert(client_);

    Word read_value = 0;
    switch (msg.type) {
      case MsgType::MemReadResp:
      case MsgType::MemRmwResp:
        read_value = msg.value;
        break;
      case MsgType::MemWriteResp:
        break;
      default:
        assert(false && "unexpected response at uncached port");
    }
    if (sink_)
        emitEvent(TraceKind::PortResponse, op, msg.src);
    client_->opCommitted(op.id, read_value);
    client_->opGloballyPerformed(op.id);
}

} // namespace wo
