#include "obs/trace_event.hh"

#include <sstream>
#include <stdexcept>

namespace wo {

const char *
toString(TraceComp c)
{
    switch (c) {
      case TraceComp::Proc: return "proc";
      case TraceComp::Cache: return "cache";
      case TraceComp::Dir: return "dir";
      case TraceComp::Net: return "net";
      case TraceComp::Mem: return "mem";
      case TraceComp::Port: return "port";
    }
    return "?";
}

const char *
toString(TraceKind k)
{
    switch (k) {
      case TraceKind::Issue: return "issue";
      case TraceKind::WbInsert: return "wb_insert";
      case TraceKind::WbForward: return "wb_forward";
      case TraceKind::Commit: return "commit";
      case TraceKind::GloballyPerformed: return "globally_performed";
      case TraceKind::StallBegin: return "stall_begin";
      case TraceKind::StallEnd: return "stall_end";
      case TraceKind::Hit: return "hit";
      case TraceKind::Miss: return "miss";
      case TraceKind::MissStalled: return "miss_stalled";
      case TraceKind::CounterInc: return "counter_inc";
      case TraceKind::CounterDec: return "counter_dec";
      case TraceKind::ReserveSet: return "reserve_set";
      case TraceKind::ReserveClear: return "reserve_clear";
      case TraceKind::InvApplied: return "inv_applied";
      case TraceKind::InvAcked: return "inv_acked";
      case TraceKind::RecallQueued: return "recall_queued";
      case TraceKind::RecallServiced: return "recall_serviced";
      case TraceKind::StateChange: return "state_change";
      case TraceKind::InvSent: return "inv_sent";
      case TraceKind::WriteAckSent: return "write_ack_sent";
      case TraceKind::RecallSent: return "recall_sent";
      case TraceKind::MsgSend: return "msg_send";
      case TraceKind::MemService: return "mem_service";
      case TraceKind::PortRequest: return "port_request";
      case TraceKind::PortResponse: return "port_response";
    }
    return "?";
}

std::uint32_t
parseTraceFilter(const std::string &list)
{
    std::uint32_t mask = 0;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty())
            continue;
        if (item == "all") {
            mask |= kAllTraceComps;
            continue;
        }
        bool known = false;
        for (int c = 0; c < kNumTraceComps; ++c) {
            TraceComp comp = static_cast<TraceComp>(c);
            if (item == toString(comp)) {
                mask |= traceCompBit(comp);
                known = true;
                break;
            }
        }
        if (!known) {
            throw std::runtime_error(
                "unknown trace component '" + item +
                "' (expected proc,cache,dir,net,mem,port or all)");
        }
    }
    if (mask == 0)
        throw std::runtime_error("empty trace filter");
    return mask;
}

} // namespace wo
