#include "mem/memory_module.hh"

#include <cassert>

#include "obs/trace_sink.hh"

namespace wo {

MemoryModule::MemoryModule(EventQueue &eq, Interconnect &net, StatSet &stats,
                           NodeId node)
    : eq_(eq), net_(net), stats_(stats), node_(node)
{
    stat_requests_ = stats_.handle("mem.requests");
    net_.attach(node, [this](const Msg &m) { handle(m); });
}

Word
MemoryModule::peek(Addr addr) const
{
    const Word *w = store_.find(addr);
    return w ? *w : 0;
}

void
MemoryModule::handle(const Msg &msg)
{
    // Serialize: one request at a time per module.
    Tick start = std::max(eq_.now(), free_at_);
    Tick done = start + kServiceLatency;
    free_at_ = done;
    stats_.inc(stat_requests_);
    if (sink_) {
        TraceEvent ev;
        ev.tick = eq_.now();
        ev.comp = TraceComp::Mem;
        ev.kind = TraceKind::MemService;
        ev.compId = node_;
        ev.src = msg.src;
        ev.dst = node_;
        ev.addr = msg.addr;
        ev.value = msg.value;
        ev.opId = msg.reqId;
        ev.aux = static_cast<std::int64_t>(done - eq_.now());
        ev.text = toString(msg.type);
        sink_->record(ev);
    }

    Msg req = msg;
    eq_.scheduleAt(done, [this, req] {
        Msg resp;
        resp.src = node_;
        resp.dst = req.src;
        resp.addr = req.addr;
        resp.reqId = req.reqId;
        resp.forSync = req.forSync;
        switch (req.type) {
          case MsgType::MemReadReq:
            resp.type = MsgType::MemReadResp;
            resp.value = peek(req.addr);
            break;
          case MsgType::MemWriteReq:
            store_.get(req.addr) = req.value;
            resp.type = MsgType::MemWriteResp;
            resp.value = req.value;
            break;
          case MsgType::MemRmwReq:
            resp.type = MsgType::MemRmwResp;
            resp.value = peek(req.addr); // old value returned
            store_.get(req.addr) = req.value;
            break;
          default:
            assert(false && "memory module got a non-memory message");
            return;
        }
        net_.send(resp);
    });
}

} // namespace wo
