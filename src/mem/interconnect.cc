#include "mem/interconnect.hh"

#include <algorithm>
#include <stdexcept>

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
    if (id < 0)
        throw std::logic_error(name_ + ": attach to negative node id " +
                               std::to_string(id));
    if (id >= numNodes())
        handlers_.resize(static_cast<std::size_t>(id) + 1);
    handlers_[id] = std::move(h);
}

void
Interconnect::checkDestination(const Msg &msg) const
{
    if (msg.dst < 0 || msg.dst >= numNodes() || !handlers_[msg.dst])
        throw std::logic_error(name_ + ": message to unattached node " +
                               std::to_string(msg.dst) + " (from node " +
                               std::to_string(msg.src) + ")");
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
    // Each send() ran checkDestination; attach() never removes one.
    eq_.scheduleAt(when,
                   [this, msg = std::move(msg)] { handlers_[msg.dst](msg); });
}

void
Bus::send(Msg msg)
{
    checkDestination(msg);
    // Arbitrate: the bus carries one message at a time.
    Tick start = std::max(eq_.now(), free_at_);
    free_at_ = start + cfg_.occupancy;
    deliverAt(start + cfg_.latency, std::move(msg));
}

void
GeneralNetwork::send(Msg msg)
{
    checkDestination(msg);
    const std::size_t n = static_cast<std::size_t>(numNodes());
    if (msg.src < 0 || static_cast<std::size_t>(msg.src) >= n)
        throw std::logic_error(name_ + ": message from node " +
                               std::to_string(msg.src) +
                               " beyond every attached node");
    if (table_nodes_ != n) {
        // A node attached since the last send: re-lay the table.
        std::vector<Tick> grown(n * n, 0);
        for (std::size_t s = 0; s < table_nodes_; ++s)
            for (std::size_t d = 0; d < table_nodes_; ++d)
                grown[s * n + d] = next_delivery_[s * table_nodes_ + d];
        next_delivery_ = std::move(grown);
        table_nodes_ = n;
    }
    Tick lat = cfg_.base + (cfg_.jitter ? rng_.below(cfg_.jitter + 1) : 0);
    Tick &next = next_delivery_[static_cast<std::size_t>(msg.src) * n +
                                static_cast<std::size_t>(msg.dst)];
    Tick when = std::max(eq_.now() + lat, next); // point-to-point FIFO
    next = when + 1;
    deliverAt(when, std::move(msg));
}

} // namespace wo
