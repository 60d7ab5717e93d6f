/**
 * @file
 * Full-map directory controller for the write-back invalidation protocol
 * of Section 5.2.
 *
 * Per-line behaviour:
 *  - requests (GetS / GetX / Upgrade) are serialized per line: while a
 *    transaction is open, later requests queue at the directory — this
 *    yields the total commit order of writes (condition 2) and of
 *    synchronization operations (condition 3) per location;
 *  - a write miss on a line shared in other caches is answered with the
 *    data immediately, IN PARALLEL with the invalidations (the paper's
 *    protocol); every invalidated cache acks; when all acks are in, the
 *    directory sends its write-ack to the requester, making the write
 *    globally performed;
 *  - a request for a line exclusive in some cache is forwarded as a
 *    recall; the recall carries the forSync flag so the owner can apply
 *    the reserve-bit rule of condition 5.
 */

#ifndef WO_COHERENCE_DIRECTORY_HH
#define WO_COHERENCE_DIRECTORY_HH

#include <string>
#include <vector>

#include "coherence/node_set.hh"
#include "coherence/protocol.hh"
#include "mem/interconnect.hh"
#include "obs/trace_event.hh"
#include "sim/addr_table.hh"
#include "sim/event_queue.hh"
#include "sim/fifo_vector.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wo {

class TraceSink;

/** One directory bank (with integrated memory for its lines). */
class Directory
{
  public:
    /** Processing latency per incoming message. */
    static constexpr Tick kLatency = 2;

    /** @p protocol selects the grant policy (clean-exclusive fills,
     * owned recalls, forwarder tracking) to match the caches'
     * transition tables. */
    Directory(EventQueue &eq, Interconnect &net, StatSet &stats, NodeId node,
              ProtocolKind protocol, std::string name);

    /** Set backing-store contents (initialization). */
    void poke(Addr addr, Word value);

    /** Install a warm Shared state with the given sharer set (test and
     * warm-start setup; the caches must be poked to match). */
    void pokeShared(Addr addr, const NodeSet &sharers);

    /** Read the directory's (possibly stale while a line is owned)
     * backing store. */
    Word peek(Addr addr) const;

    /** True if no line has an open transaction (quiescence check). */
    bool idle() const;

    /** Snapshot of one line's directory state, for auditing. */
    struct LineAudit
    {
        bool known = false; ///< the directory has seen this line
        bool exclusive = false;
        bool shared = false;
        bool owned = false; ///< MOESI: dirty at owner, sharers read
        NodeId owner = -1;
        NodeId forwarder = -1; ///< MESIF designated responder
        NodeSet sharers;
        bool busy = false;
    };

    /** Audit snapshot of @p addr. */
    LineAudit audit(Addr addr) const;

    /** Incoming message handler. */
    void handle(const Msg &msg);

    /** Give exactly @p addrs (ascending) a line each (a System binds
     * its program's touched addresses once per program). */
    void bindAddrs(const std::vector<Addr> &addrs) { lines_.bind(addrs); }

    /** Clear every line (state and backing store) in place for reuse.
     * Must only be called between runs (no open transactions). */
    void reset() { lines_.reset(); }

    /** Attach a structured trace sink (nullptr detaches). Emits
     * invalidate-sent, recall-sent and write-ack-sent events. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

  private:
    /**
     * Directory-side line state. Exclusive covers a cache holding the
     * line E or M (the directory cannot tell — MESI's E upgrades to M
     * silently); Owned is MOESI's dirty-at-owner-with-sharers state.
     */
    enum class St { Uncached, Shared, Exclusive, Owned };

    struct Line
    {
        St st = St::Uncached;
        NodeSet sharers;
        NodeId owner = -1;

        /** MESIF: the sharer designated to service the next read (-1 =
         * none; reads are then served from memory). */
        NodeId forwarder = -1;

        Word mem = 0;

        bool busy = false;
        Msg cur;                 ///< request being serviced
        int pendingInvAcks = 0;
        bool waitingRecall = false;
        /** The current GetX already got its Data (commit) — only the
         * WriteAck remains (Owned writes wait on a recall AND
         * invalidation acks; whichever finishes last completes). */
        bool dataSent = false;
        FifoVector<Msg> waiting; ///< queued requests

        /** Back to a fresh Uncached line, keeping storage. */
        void reset();
    };

    void process(const Msg &msg);
    void startRequest(Line &line, const Msg &msg);
    void startGetS(Line &line, const Msg &msg);
    void startGetX(Line &line, const Msg &msg);
    void startUpgradeInvs(Line &line, const Msg &msg);
    void finishWrite(Line &line);

    /** Complete the pending request after the recalled holder kept no
     * copy (RecallInvData, or a PutX/PutE that raced our recall). */
    void completeRecalledOwnerGone(Line &line);
    void completeTransaction(Line &line);

    const CoherenceProtocol &proto() const { return *proto_; }

    void reply(const Msg &req, MsgType type, Word value, int ack_count = 0);
    void sendTo(NodeId dst, MsgType type, Addr addr, Word value = 0,
                bool for_sync = false);

    /** Emit one structured trace event (sink_ must be non-null). */
    void emitEvent(TraceKind kind, Addr addr, NodeId dst);

    Line &lineOf(Addr addr);

    EventQueue &eq_;
    Interconnect &net_;
    StatSet &stats_;
    NodeId node_;
    const CoherenceProtocol *proto_;
    std::string name_;

    /** Interned stat handles, resolved once at construction. */
    struct StatHandles
    {
        StatHandle requests;
        StatHandle queued;
        StatHandle recallNacks;
        StatHandle writebacks;
        StatHandle cleanRelinquishes;
        StatHandle invalidations;
        StatHandle recalls;
        StatHandle exclusiveGrants; ///< DataE clean-exclusive read fills
        StatHandle forwardRecalls;  ///< MESIF forwarder recalls
    };
    StatHandles stat_;

    AddrTable<Line> lines_;

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
};

} // namespace wo

#endif // WO_COHERENCE_DIRECTORY_HH
