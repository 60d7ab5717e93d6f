#include "mem/interconnect.hh"

#include <cassert>

#include "obs/trace_sink.hh"

namespace wo {

bool
isDirRequest(MsgType t)
{
    return t == MsgType::GetS || t == MsgType::GetX ||
           t == MsgType::Upgrade;
}

std::string
toString(MsgType t)
{
    switch (t) {
      case MsgType::MemReadReq: return "MemReadReq";
      case MsgType::MemWriteReq: return "MemWriteReq";
      case MsgType::MemRmwReq: return "MemRmwReq";
      case MsgType::MemReadResp: return "MemReadResp";
      case MsgType::MemWriteResp: return "MemWriteResp";
      case MsgType::MemRmwResp: return "MemRmwResp";
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::Upgrade: return "Upgrade";
      case MsgType::PutX: return "PutX";
      case MsgType::PutE: return "PutE";
      case MsgType::Data: return "Data";
      case MsgType::DataE: return "DataE";
      case MsgType::DataEx: return "DataEx";
      case MsgType::UpgradeAck: return "UpgradeAck";
      case MsgType::WriteAck: return "WriteAck";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Recall: return "Recall";
      case MsgType::RecallInv: return "RecallInv";
      case MsgType::RecallData: return "RecallData";
      case MsgType::RecallDataOwned: return "RecallDataOwned";
      case MsgType::RecallInvData: return "RecallInvData";
      case MsgType::RecallNack: return "RecallNack";
      case MsgType::PutAck: return "PutAck";
    }
    return "?";
}

void
Interconnect::attach(NodeId id, Handler h)
{
    handlers_[id] = std::move(h);
}

void
Interconnect::reset(std::uint64_t)
{
    sent_ = 0;
    lat_msg_.reset();
}

void
Interconnect::deliverAt(Tick when, Msg msg)
{
    ++sent_;
    stats_.inc(stat_msgs_);
    stats_.inc(stat_latency_total_, when - eq_.now());
    if (sink_) {
        TraceEvent ev;
        ev.tick = eq_.now();
        ev.comp = TraceComp::Net;
        ev.kind = TraceKind::MsgSend;
        ev.compId = 0;
        ev.src = msg.src;
        ev.dst = msg.dst;
        ev.addr = msg.addr;
        ev.value = msg.value;
        ev.opId = msg.reqId;
        ev.aux = static_cast<std::int64_t>(when - eq_.now());
        ev.text = toString(msg.type);
        sink_->record(ev);
        lat_msg_.record(when - eq_.now());
    } else {
        // Tracing off: bucket occupancy still reaches an installed
        // CoverageMap (no stats interned, reports unchanged).
        lat_msg_.coverOnly(when - eq_.now());
    }
    eq_.scheduleAt(when, [this, msg = std::move(msg)] {
        auto it = handlers_.find(msg.dst);
        assert(it != handlers_.end() && "message to unattached node");
        it->second(msg);
    });
}

void
Bus::send(Msg msg)
{
    // Arbitrate: the bus carries one message at a time.
    Tick start = std::max(eq_.now(), free_at_);
    free_at_ = start + cfg_.occupancy;
    deliverAt(start + cfg_.latency, std::move(msg));
}

void
GeneralNetwork::send(Msg msg)
{
    Tick lat = cfg_.base + (cfg_.jitter ? rng_.below(cfg_.jitter + 1) : 0);
    Tick when = eq_.now() + lat;
    auto key = std::make_pair(msg.src, msg.dst);
    auto it = last_delivery_.find(key);
    if (it != last_delivery_.end() && when <= it->second)
        when = it->second + 1; // point-to-point FIFO
    last_delivery_[key] = when;
    deliverAt(when, std::move(msg));
}

} // namespace wo
