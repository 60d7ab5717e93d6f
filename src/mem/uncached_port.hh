/**
 * @file
 * Memory port for cache-less configurations: every access travels over
 * the interconnect to an address-interleaved memory module.
 *
 * Commit and globally-performed coincide at the response: an uncached
 * access is performed everywhere once the (single) memory copy is
 * read/updated and the response is back.
 */

#ifndef WO_MEM_UNCACHED_PORT_HH
#define WO_MEM_UNCACHED_PORT_HH

#include <vector>

#include "cpu/mem_port.hh"
#include "mem/interconnect.hh"
#include "obs/trace_event.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace wo {

class TraceSink;

/** Processor-side port that talks directly to memory modules. */
class UncachedPort : public MemPort
{
  public:
    /**
     * @param node      this port's interconnect node id
     * @param mem_base  node id of memory module 0
     * @param num_mods  number of modules (addr mod num_mods)
     */
    UncachedPort(EventQueue &eq, Interconnect &net, StatSet &stats,
                 NodeId node, NodeId mem_base, int num_mods,
                 std::string name);

    void setPortClient(CacheClient *c) override { client_ = c; }

    void request(const CacheOp &op) override;

    /** Incoming response handler. */
    void handle(const Msg &msg);

    /** Drop in-flight requests for reuse (the client stays attached);
     * storage is kept. */
    void reset() { pending_.clear(); }

    /** Attach a structured trace sink (nullptr detaches). Emits one
     * PortRequest per access and one PortResponse per reply. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

  private:

    /** Emit one structured trace event (sink_ must be non-null). */
    void emitEvent(TraceKind kind, const CacheOp &op, NodeId peer);

    EventQueue &eq_;
    Interconnect &net_;
    StatSet &stats_;
    NodeId node_;
    NodeId mem_base_;
    int num_mods_;
    std::string name_;
    StatHandle stat_requests_; ///< interned name_ + ".requests"
    CacheClient *client_ = nullptr;
    /** In-flight requests, found by op id: a processor has only a
     * handful outstanding, so a scan beats a node map, and the vector
     * keeps its storage between runs. */
    std::vector<CacheOp> pending_;

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
};

} // namespace wo

#endif // WO_MEM_UNCACHED_PORT_HH
