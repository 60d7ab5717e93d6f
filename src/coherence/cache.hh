/**
 * @file
 * Per-processor cache with a directory-based write-back invalidation
 * protocol, implementing the hardware mechanisms of Section 5 of the
 * paper:
 *
 *  - lockup-free operation with MSHRs (multiple outstanding misses);
 *  - a per-processor counter of outstanding accesses: incremented on every
 *    cache miss, decremented when a line arrives for a read, when a line
 *    arrives exclusively for a write with no invalidations pending, and
 *    when the directory's final write-ack arrives;
 *  - a reserve bit per line: set when a synchronization operation commits
 *    while the counter is positive; all reserve bits clear when the
 *    counter reads zero; recalls targeting a reserved line are queued
 *    until the counter reads zero; reserved lines are never evicted;
 *  - optional bounding of the number of misses sent while any line is
 *    reserved (Section 5.3's fairness refinement);
 *  - optional treatment of read-only synchronization (Test) as an
 *    ordinary read (the Section 6 refinement).
 *
 * Writes commit when they modify the local copy; the directory may forward
 * a line in parallel with outstanding invalidations, so commit and
 * globally-performed are distinct events, reported separately to the
 * client.
 */

#ifndef WO_COHERENCE_CACHE_HH
#define WO_COHERENCE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "cpu/isa.hh"
#include "cpu/mem_port.hh"
#include "mem/interconnect.hh"
#include "obs/trace_event.hh"
#include "sim/addr_table.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wo {

struct ConsistencyPolicy;
class TraceSink;

/** Configuration of one cache. */
struct CacheConfig
{
    /** Number of sets; 0 models an unbounded cache (no evictions). */
    int numSets = 0;

    /** Associativity (used when numSets > 0). */
    int ways = 4;

    /** Extra delay before acknowledging an invalidation; models how long
     * a remote write takes to be globally performed (Figure 3 sweeps). */
    Tick invApplyDelay = 0;

    /** Max misses sent to memory while any line is reserved
     * (-1 = unlimited). */
    int maxMissesWhileReserved = -1;

    /**
     * Reserve-clearing discipline.
     *
     * true (default): the "dynamic solution" the paper points to — each
     * reserve waits only on the misses generated before its
     * synchronization committed (per-miss sequence numbers), so a later
     * sync miss to a second lock never holds an earlier reserve. This is
     * deadlock-free for DRF0 programs with any number of locks.
     *
     * false: the literal Section 5.3 mechanism — all reserve bits clear
     * only when the counter reads zero. With two or more locks this can
     * deadlock (P0 reserves lock A while its miss on lock B is queued at
     * P1, which reserves B while its miss on A is queued at P0); exposed
     * as an ablation.
     */
    bool epochReserveClearing = true;

    bool operator==(const CacheConfig &) const = default;
};

/**
 * A lockup-free, single-word-line, write-back cache attached to a
 * directory over an interconnect.
 */
class Cache : public MemPort
{
  public:
    /** Latency of a cache hit (commit delay). */
    static constexpr Tick kHitLatency = 1;

    /**
     * @param node      this cache's interconnect node id
     * @param dir_base  node id of directory bank 0
     * @param num_dirs  number of directory banks (addr mod num_dirs)
     * @param protocol  coherence protocol (selects the transition table)
     * @param policy    consistency-policy row whose hints select the
     *                  reserve-bit mechanism (condition 5) and whether a
     *                  read-only synchronization (Test) counts as a write
     *                  at the coherence level (the DRF0 example
     *                  implementation of Section 5) or as a read (the
     *                  Section 6 refinement)
     */
    Cache(EventQueue &eq, Interconnect &net, StatSet &stats, NodeId node,
          NodeId dir_base, int num_dirs, ProtocolKind protocol,
          const ConsistencyPolicy &policy, const CacheConfig &cfg,
          std::string name);

    /** Register the processor-side client. */
    void setPortClient(CacheClient *c) override { client_ = c; }

    /** Processor hands the cache one memory operation. */
    void request(const CacheOp &op) override { access(op); }

    /** Core of request(): classify hit/miss and act. */
    void access(const CacheOp &op);

    /** The paper's outstanding-access counter. */
    int counter() const { return counter_; }

    /** True if any line currently has its reserve bit set. */
    bool anyReserved() const { return !reserved_.empty(); }

    /** Directly install a line (test setup only). */
    void pokeLine(Addr addr, LineState state, Word data);

    /** Look up a line's state; returns false if not present. */
    bool peekLine(Addr addr, LineState *state, Word *data) const;

    /** Incoming message handler (attached to the interconnect). */
    void handle(const Msg &msg);

    /** Give exactly @p addrs (ascending) a line and MSHR slot each (a
     * System binds its program's touched addresses once per program). */
    void bindAddrs(const std::vector<Addr> &addrs) { slots_.bind(addrs); }

    /**
     * Restore construction-time state for reuse: every line, MSHR,
     * stalled queue and the outstanding-access counter are dropped, in
     * place (storage is kept). The client and interconnect attachment
     * persist. Must only be called between runs (no messages in flight).
     */
    void reset();

    /** Attach a structured trace sink (nullptr detaches). Emits
     * hit/miss, counter, reserve-bit, invalidation and recall events;
     * the disabled path costs one null test per potential event. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** The protocol transition table this cache runs. */
    const CoherenceProtocol &protocol() const { return *proto_; }

  private:
    struct Line
    {
        LineState state = LineState::Shared;
        Word data = 0;
        bool reserved = false;
        /** The reserve waits only on misses generated before the
         * reserving synchronization committed (miss sequence numbers
         * below this bound) — the paper's "dynamic solution", which
         * avoids cross-lock deadlock: a later sync miss never holds an
         * earlier reserve. */
        std::uint64_t reservedUpTo = 0;
        /** A committed write on this line awaits the directory's
         * write-ack; the ops below are globally performed when it
         * arrives. */
        bool pendingGp = false;
        std::uint64_t pendingGpMissSeq = 0;
        std::vector<std::uint64_t> gpWaiters;
        Tick lastUse = 0;

        /** Back to a freshly installed line, keeping storage. */
        void reset();
    };

    struct Mshr
    {
        MsgType sent = MsgType::GetS;
        CacheOp op;
        std::uint64_t seq = 0; ///< miss sequence number
    };

    /** One address's state: its line, if present, and its MSHR, if a
     * miss is outstanding. */
    struct Slot
    {
        Line line;
        bool valid = false; ///< the line is present
        Mshr mshr;
        bool mshrLive = false;

        void
        reset()
        {
            line.reset();
            valid = false;
            mshrLive = false;
        }
    };

    /** Coherence-level treatment of an access under this config. */
    bool treatedAsWrite(AccessKind k) const;

    /** True if @p k should set the reserve bit on commit (an "ordering"
     * synchronization under the active model). */
    bool ordersViaReserve(AccessKind k) const;

    void sendToDir(MsgType type, Addr addr, Word value, bool for_sync);

    /** Perform (commit) @p op on @p line now; client notifications are
     * delivered after @p delay ticks. */
    void commitOnLine(const CacheOp &op, Line &line, bool gp_now,
                      Tick delay = 0);

    void handleFill(const Msg &msg);
    void handleInv(const Msg &msg);
    void handleRecall(const Msg &msg);
    void serviceRecall(const Msg &msg);
    void handleWriteAck(const Msg &msg);

    void decrementCounter(std::uint64_t miss_seq);
    void updateReservations();
    void onCounterZero();

    /** Ensure room in @p addr's set; returns false if the op must stall. */
    bool makeRoomFor(Addr addr);
    void retryStalled();

    Line *findLine(Addr addr);

    /** Make @p slot's line present and fresh; returns it. */
    Line &installLine(Slot &slot);

    /** Drop @p addr's line (which must be present). */
    void eraseLine(Addr addr) { slots_.find(addr)->valid = false; }

    /** Throw std::logic_error naming this cache and @p addr. */
    [[noreturn]] void invariantFailed(const char *what, Addr addr) const;

    int setOf(Addr addr) const;
    NodeId dirFor(Addr addr) const;

    /**
     * Queue @p op behind a miss stall. The one site that counts miss
     * stalls: it bumps <name>.stalled_by_<why> and
     * <name>.miss_stalls_total together (so the total sums the reasons
     * by construction), the coverage row, and the MissStalled trace
     * event.
     */
    void missStalled(const CacheOp &op, MissStall why);

    /** Emit one structured trace event (sink_ must be non-null). */
    void emitEvent(TraceKind kind, Addr addr, std::int64_t aux = 0,
                   const char *detail = nullptr);

    /** Trace a protocol state transition (no-op when from == to or the
     * sink is detached). */
    void traceState(Addr addr, LineState from, LineState to);

    EventQueue &eq_;
    Interconnect &net_;
    StatSet &stats_;
    NodeId node_;
    NodeId dir_base_;
    int num_dirs_;
    CacheConfig cfg_;
    /** The policy's cache hints, read once at construction. */
    bool syncReadsAsWrites_;
    bool useReserveBits_;
    const CoherenceProtocol *proto_;
    std::string name_;
    CacheClient *client_ = nullptr;

    /** Interned stat handles, resolved once at construction so the hot
     * path bumps dense counters instead of hashing strings. */
    struct StatHandles
    {
        StatHandle hits;
        StatHandle misses;
        StatHandle writebacks;
        StatHandle silentDrops;
        StatHandle silentUpgrades;
        StatHandle cleanRelinquishes;
        StatHandle reserves;
        StatHandle missStallsTotal;
        StatHandle stalledBy[kNumMissStalls];
        StatHandle counterMax;
        StatHandle putacks;
        StatHandle invalidations;
        StatHandle staleInvalidations;
        StatHandle recallNacks;
        StatHandle recallsQueued;
        StatHandle recallsServiced;
    };
    StatHandles stat_;

    AddrTable<Slot> slots_;
    std::vector<int> inflight_fills_; ///< per-set fills in flight
    std::vector<Msg> stalled_recalls_;
    std::vector<CacheOp> stalled_ops_;
    /** Sequence numbers of the misses still outstanding, ascending:
     * numbers only grow, so a new miss appends. */
    std::vector<std::uint64_t> outstanding_miss_seqs_;
    std::uint64_t next_miss_seq_ = 0;
    int counter_ = 0;
    /** Addresses of the lines whose reserve bit is set, ascending, so
     * updateReservations visits only reserved lines, in address order. */
    std::vector<Addr> reserved_;
    int misses_while_reserved_ = 0;

    /** Buffers the handlers reuse, so none allocates once warm:
     * makeRoomFor's slots in the set, updateReservations' released lines
     * and the recalls it re-examines, retryStalled's ops, and the
     * write-ack's globally-performed waiters. */
    std::vector<std::size_t> in_set_;
    std::vector<Addr> released_;
    std::vector<Msg> recalls_buf_;
    std::vector<CacheOp> retry_ops_;
    std::vector<std::uint64_t> gp_buf_;

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
};

} // namespace wo

#endif // WO_COHERENCE_CACHE_HH
