/**
 * @file
 * Structured trace events: the record type every simulator layer emits
 * into a TraceSink when tracing is enabled.
 *
 * Design contract (the "disabled path"): components hold a raw
 * `TraceSink *` that is null by default. Emitting is always guarded by a
 * single pointer test — no TraceEvent is constructed, no string is
 * formatted and nothing allocates unless a sink is attached. This is the
 * same discipline as the pooled event kernel: observability must cost
 * one predictable branch when off.
 *
 * Events are *semantically* tagged (issue, globally-performed, counter
 * increment, reserve set, stall begin, ...) rather than free-form text,
 * so exporters can map them onto timeline phases (Chrome trace b/e/B/E/C
 * events) and analyses can aggregate without parsing.
 */

#ifndef WO_OBS_TRACE_EVENT_HH
#define WO_OBS_TRACE_EVENT_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace wo {

/** Which simulator layer emitted an event. */
enum class TraceComp : std::uint8_t {
    Proc,  ///< processor dispatch / issue / stall
    Cache, ///< coherent cache (Section 5 counter + reserve machinery)
    Dir,   ///< directory bank
    Net,   ///< interconnect (bus or general network)
    Mem,   ///< memory module (cache-less systems)
    Port,  ///< uncached processor port
};

inline constexpr int kNumTraceComps = 6;

/** What happened. Grouped by the component that emits the kind. */
enum class TraceKind : std::uint8_t {
    // Processor.
    Issue,             ///< memory op handed to the memory system
    WbInsert,          ///< write entered the write buffer
    WbForward,         ///< read satisfied by a buffered write
    Commit,            ///< op committed (value bound / local copy updated)
    GloballyPerformed, ///< op globally performed
    StallBegin,        ///< dispatch stalled; detail = stall reason
    StallEnd,          ///< dispatch resumed

    // Cache.
    Hit,            ///< access satisfied locally
    Miss,           ///< miss sent to the directory; text = request type
    MissStalled,    ///< miss queued (reserve bound / no evictable way)
    CounterInc,     ///< outstanding-access counter ++; aux = new value
    CounterDec,     ///< outstanding-access counter --; aux = new value
    ReserveSet,     ///< reserve bit set on a line (condition 5)
    ReserveClear,   ///< reserve bit cleared
    InvApplied,     ///< invalidation applied (line dropped or stale)
    InvAcked,       ///< invalidation acknowledgement sent
    RecallQueued,   ///< recall held on a reserved line
    RecallServiced, ///< recall serviced (line downgraded / returned)
    StateChange,    ///< protocol state transition; detail = "M->S" label

    // Directory.
    InvSent,      ///< invalidation sent to a sharer
    WriteAckSent, ///< final write-ack sent (write globally performed)
    RecallSent,   ///< recall sent to an owner

    // Interconnect / memory / uncached port.
    MsgSend,      ///< message injected; aux = delivery latency
    MemService,   ///< memory module accepted a request; aux = service delay
    PortRequest,  ///< uncached port sent a request
    PortResponse, ///< uncached port completed a request
};

/** Sentinel: event carries no address. */
inline constexpr Addr kNoTraceAddr = ~Addr{0};

/**
 * One structured trace record. Only fields meaningful for the kind are
 * set; the rest keep their defaults. `detail` must point at a string
 * with static storage duration (event taxonomy tags, stall reasons);
 * dynamic text goes in `text`.
 */
struct TraceEvent
{
    Tick tick = 0;
    TraceComp comp = TraceComp::Proc;
    TraceKind kind = TraceKind::Issue;
    int compId = -1;              ///< emitting component's index / node id
    ProcId proc = kNoProc;        ///< processor the event belongs to
    NodeId src = -1;              ///< message source (network events)
    NodeId dst = -1;              ///< message destination (network events)
    Addr addr = kNoTraceAddr;
    Word value = 0;
    std::uint64_t opId = 0;       ///< processor op id (0 = none)
    std::int64_t aux = 0;         ///< kind-specific scalar (counter, latency)
    std::uint8_t level = 1;       ///< cache-hierarchy level (MidCache = 2)
    const char *detail = nullptr; ///< static tag (access kind, stall reason)
    std::string text;             ///< dynamic payload (msg type)
};

/** Short lowercase name ("proc", "cache", ...). */
const char *toString(TraceComp c);

/** Snake-case kind name ("issue", "globally_performed", ...). */
const char *toString(TraceKind k);

/** Filter bit for one component. */
inline std::uint32_t
traceCompBit(TraceComp c)
{
    return std::uint32_t{1} << static_cast<unsigned>(c);
}

/** Mask accepting every component. */
inline constexpr std::uint32_t kAllTraceComps =
    (std::uint32_t{1} << kNumTraceComps) - 1;

/**
 * Parse a comma-separated component list ("proc,cache,net" or "all")
 * into a filter mask. Throws std::runtime_error on an unknown name.
 */
std::uint32_t parseTraceFilter(const std::string &list);

} // namespace wo

#endif // WO_OBS_TRACE_EVENT_HH
