#include "obs/trace_export.hh"

#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "sim/json.hh"

namespace wo {

namespace {

/** Stable small thread id for one (component, index) pair. */
int
tidOf(const TraceEvent &ev)
{
    int base = 0;
    switch (ev.comp) {
      case TraceComp::Proc: base = 0; break;
      case TraceComp::Cache: base = ev.level >= 2 ? 150 : 100; break;
      case TraceComp::Dir: base = 200; break;
      case TraceComp::Mem: base = 300; break;
      case TraceComp::Port: base = 400; break;
      case TraceComp::Net: base = 500; break;
    }
    return base + (ev.compId > 0 ? ev.compId : 0);
}

std::string
threadLabel(const TraceEvent &ev)
{
    std::string label = toString(ev.comp);
    if (ev.comp == TraceComp::Cache && ev.level >= 2)
        label = "l" + std::to_string(int{ev.level}) + "cache";
    if (ev.compId >= 0 &&
        (ev.comp == TraceComp::Proc || ev.comp == TraceComp::Cache ||
         ev.comp == TraceComp::Dir || ev.comp == TraceComp::Mem ||
         ev.comp == TraceComp::Port)) {
        label += std::to_string(ev.compId);
    }
    return label;
}

/** The kind-specific args object, shared by every phase. */
std::string
argsJson(const TraceEvent &ev)
{
    std::ostringstream oss;
    oss << "{";
    bool first = true;
    auto field = [&](const char *k, const std::string &v, bool quote) {
        oss << (first ? "" : ",") << "\"" << k << "\":";
        if (quote)
            oss << "\"" << jsonEscape(v) << "\"";
        else
            oss << v;
        first = false;
    };
    if (ev.addr != kNoTraceAddr)
        field("addr", std::to_string(ev.addr), false);
    if (ev.proc != kNoProc)
        field("proc", std::to_string(ev.proc), false);
    if (ev.opId)
        field("op", std::to_string(ev.opId), false);
    if (ev.src >= 0)
        field("src", std::to_string(ev.src), false);
    if (ev.dst >= 0)
        field("dst", std::to_string(ev.dst), false);
    if (ev.value)
        field("value", std::to_string(ev.value), false);
    if (ev.aux)
        field("aux", std::to_string(ev.aux), false);
    if (ev.level > 1)
        field("level", std::to_string(int{ev.level}), false);
    if (ev.detail)
        field("detail", ev.detail, true);
    if (!ev.text.empty())
        field("text", ev.text, true);
    oss << "}";
    return oss.str();
}

struct Emitter
{
    std::ostream &os;
    bool first = true;

    void
    line(const std::string &body)
    {
        os << (first ? "" : ",") << "\n  {" << body << "}";
        first = false;
    }
};

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<TraceEvent> &events)
{
    os << "{\"traceEvents\": [";
    Emitter out{os};

    // Thread-name metadata first, in tid order.
    std::map<int, std::string> threads;
    for (const TraceEvent &ev : events)
        threads.emplace(tidOf(ev), threadLabel(ev));
    for (const auto &[tid, label] : threads) {
        out.line("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
                 std::to_string(tid) + ",\"args\":{\"name\":\"" +
                 jsonEscape(label) + "\"}");
    }

    // Async-span bookkeeping: which issue->GP and reserve spans are open,
    // so we never emit an "e" without its "b".
    std::set<std::pair<int, std::uint64_t>> open_ops;
    std::set<std::pair<int, Addr>> open_reserves;

    for (const TraceEvent &ev : events) {
        std::ostringstream oss;
        std::string ts = std::to_string(ev.tick);
        std::string tid = std::to_string(tidOf(ev));
        std::string args = argsJson(ev);
        const char *kind_name = toString(ev.kind);

        switch (ev.kind) {
          case TraceKind::StallBegin:
            oss << "\"name\":\"stall:"
                << (ev.detail ? ev.detail : "unknown")
                << "\",\"cat\":\"stall\",\"ph\":\"B\",\"pid\":1,\"tid\":"
                << tid << ",\"ts\":" << ts << ",\"args\":" << args;
            break;
          case TraceKind::StallEnd:
            oss << "\"name\":\"stall\",\"cat\":\"stall\",\"ph\":\"E\","
                   "\"pid\":1,\"tid\":"
                << tid << ",\"ts\":" << ts;
            break;
          case TraceKind::Issue: {
            open_ops.insert({ev.proc, ev.opId});
            oss << "\"name\":\"" << (ev.detail ? ev.detail : "access")
                << "\",\"cat\":\"access\",\"ph\":\"b\",\"id\":\"p"
                << ev.proc << "." << ev.opId << "\",\"pid\":1,\"tid\":"
                << tid << ",\"ts\":" << ts << ",\"args\":" << args;
            break;
          }
          case TraceKind::GloballyPerformed: {
            auto key = std::make_pair(static_cast<int>(ev.proc), ev.opId);
            if (open_ops.erase(key)) {
                oss << "\"name\":\"" << (ev.detail ? ev.detail : "access")
                    << "\",\"cat\":\"access\",\"ph\":\"e\",\"id\":\"p"
                    << ev.proc << "." << ev.opId
                    << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts
                    << ",\"args\":" << args;
            } else {
                // Write-buffer ops have no issue span; show an instant.
                oss << "\"name\":\"" << kind_name
                    << "\",\"cat\":\"access\",\"ph\":\"i\",\"s\":\"t\","
                       "\"pid\":1,\"tid\":"
                    << tid << ",\"ts\":" << ts << ",\"args\":" << args;
            }
            break;
          }
          case TraceKind::ReserveSet:
            open_reserves.insert({ev.compId, ev.addr});
            oss << "\"name\":\"reserved@" << ev.addr
                << "\",\"cat\":\"reserve\",\"ph\":\"b\",\"id\":\"c"
                << ev.compId << ".a" << ev.addr
                << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts
                << ",\"args\":" << args;
            break;
          case TraceKind::ReserveClear: {
            auto key = std::make_pair(ev.compId, ev.addr);
            if (open_reserves.erase(key)) {
                oss << "\"name\":\"reserved@" << ev.addr
                    << "\",\"cat\":\"reserve\",\"ph\":\"e\",\"id\":\"c"
                    << ev.compId << ".a" << ev.addr
                    << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts;
            } else {
                oss << "\"name\":\"" << kind_name
                    << "\",\"cat\":\"reserve\",\"ph\":\"i\",\"s\":\"t\","
                       "\"pid\":1,\"tid\":"
                    << tid << ",\"ts\":" << ts << ",\"args\":" << args;
            }
            break;
          }
          case TraceKind::CounterInc:
          case TraceKind::CounterDec:
            oss << "\"name\":\"cache" << ev.compId
                << ".outstanding\",\"cat\":\"counter\",\"ph\":\"C\","
                   "\"pid\":1,\"tid\":"
                << tid << ",\"ts\":" << ts
                << ",\"args\":{\"outstanding\":" << ev.aux << "}";
            break;
          default:
            oss << "\"name\":\"" << kind_name << "\",\"cat\":\""
                << toString(ev.comp)
                << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << ts << ",\"args\":" << args;
            break;
        }
        out.line(oss.str());
    }
    os << "\n],\n\"displayTimeUnit\": \"ns\"}\n";
}

void
renderTraceText(std::ostream &os, const std::vector<TraceEvent> &events)
{
    for (const TraceEvent &ev : events) {
        std::ostringstream who;
        who << "[" << threadLabel(ev) << "]";
        os << std::setw(10) << ev.tick << "  " << std::left << std::setw(9)
           << who.str() << std::setw(20) << toString(ev.kind) << std::right;
        if (ev.opId)
            os << " op=" << ev.opId;
        if (ev.addr != kNoTraceAddr)
            os << " addr=" << ev.addr;
        if (ev.proc != kNoProc && ev.comp != TraceComp::Proc)
            os << " proc=" << ev.proc;
        if (ev.src >= 0 || ev.dst >= 0)
            os << " " << ev.src << "->" << ev.dst;
        if (ev.value)
            os << " value=" << ev.value;
        if (ev.aux)
            os << " aux=" << ev.aux;
        if (ev.detail)
            os << " " << ev.detail;
        if (!ev.text.empty())
            os << " " << ev.text;
        os << "\n";
    }
}

} // namespace wo
