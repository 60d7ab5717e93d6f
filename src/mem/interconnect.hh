/**
 * @file
 * Interconnect models: a serializing shared bus and a general
 * interconnection network.
 *
 * These are the two interconnect families of the paper's Figure 1. The bus
 * delivers messages one at a time in global FIFO order; the general network
 * delivers each message with independently jittered latency, so messages
 * between *different* node pairs can be reordered — the behaviour that
 * breaks sequential consistency in cache-less systems even when each
 * processor issues accesses in program order (Figure 1, case 2).
 *
 * Messages between the *same* (source, destination) pair are delivered in
 * FIFO order on both interconnects; the directory protocol relies on
 * point-to-point ordering (as real virtual-channel networks provide).
 */

#ifndef WO_MEM_INTERCONNECT_HH
#define WO_MEM_INTERCONNECT_HH

#include <functional>
#include <vector>

#include "mem/message.hh"
#include "obs/latency_histogram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wo {

class TraceSink;

/** Abstract interconnect: nodes attach handlers and send messages. */
class Interconnect
{
  public:
    using Handler = std::function<void(const Msg &)>;

    Interconnect(EventQueue &eq, StatSet &stats, std::string name)
        : eq_(eq), stats_(stats), name_(std::move(name)),
          lat_msg_(stats, name_, LatencyKind::Msg)
    {
        stat_msgs_ = stats_.handle(name_ + ".msgs");
        stat_latency_total_ = stats_.handle(name_ + ".latency_total");
    }

    virtual ~Interconnect() = default;

    /** Register the message handler for node @p id. Node ids are
     * dense small integers (System numbers L1s, then L2s, then
     * directories or memory banks), so handlers live in a vector
     * indexed by id. */
    void attach(NodeId id, Handler h);

    /**
     * Restore construction-time state for reuse (handlers stay
     * attached — the owning components persist across runs). @p seed
     * re-seeds the jitter stream on a GeneralNetwork and is ignored by
     * the Bus, mirroring how SystemConfig carries a net seed for both.
     */
    virtual void reset(std::uint64_t seed);

    /** Inject @p msg; it will be delivered to msg.dst's handler later. */
    virtual void send(Msg msg) = 0;

    /** Messages injected so far. */
    std::uint64_t sent() const { return sent_; }

    /** Attach a structured trace sink (nullptr detaches). Emits one
     * MsgSend event per delivery and feeds the message-latency
     * histogram; with no sink the per-message cost is one null test. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** Per-message network latency histogram (samples only accumulate
     * while a trace sink is attached). */
    const LatencyHistogram &msgLatencyHistogram() const { return lat_msg_; }

  protected:
    /** One past the highest attached node id. */
    NodeId numNodes() const { return static_cast<NodeId>(handlers_.size()); }

    /** Deliver at absolute time @p when (keeps stats). */
    void deliverAt(Tick when, Msg msg);

    /** Throw std::logic_error, in every build type, unless @p msg's
     * destination has a handler. */
    void checkDestination(const Msg &msg) const;

    EventQueue &eq_;
    StatSet &stats_;
    std::string name_;
    /** Interned handles for the per-message hot path. */
    StatHandle stat_msgs_;
    StatHandle stat_latency_total_;
    std::vector<Handler> handlers_; ///< by node id; empty = unattached
    std::uint64_t sent_ = 0;

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
    LatencyHistogram lat_msg_;
};

/**
 * A shared bus: one message occupies the bus for a fixed number of cycles;
 * all traffic is serialized in global FIFO order.
 */
class Bus : public Interconnect
{
  public:
    struct Config
    {
        Tick latency = 4;   ///< propagation delay once on the bus
        Tick occupancy = 1; ///< cycles the bus is held per message

        bool operator==(const Config &) const = default;
    };

    Bus(EventQueue &eq, StatSet &stats, const Config &cfg,
        std::string name = "bus")
        : Interconnect(eq, stats, std::move(name)), cfg_(cfg)
    {}

    void send(Msg msg) override;

    void
    reset(std::uint64_t seed) override
    {
        Interconnect::reset(seed);
        free_at_ = 0;
    }

  private:
    Config cfg_;
    Tick free_at_ = 0;
};

/**
 * A general interconnection network: per-message latency is base plus a
 * deterministic pseudo-random jitter. Point-to-point FIFO order is
 * enforced per (src, dst) pair; messages on different pairs reorder
 * freely.
 */
class GeneralNetwork : public Interconnect
{
  public:
    struct Config
    {
        Tick base = 6;          ///< minimum latency
        Tick jitter = 8;        ///< max extra latency (uniform in [0, jitter])
        std::uint64_t seed = 1; ///< jitter stream seed

        bool operator==(const Config &) const = default;
    };

    GeneralNetwork(EventQueue &eq, StatSet &stats, const Config &cfg,
                   std::string name = "net")
        : Interconnect(eq, stats, std::move(name)), cfg_(cfg),
          rng_(cfg.seed)
    {}

    void send(Msg msg) override;

    void
    reset(std::uint64_t seed) override
    {
        Interconnect::reset(seed);
        cfg_.seed = seed;
        rng_ = Rng(seed);
        next_delivery_.assign(next_delivery_.size(), 0);
    }

  private:
    Config cfg_;
    Rng rng_;
    /** Earliest next delivery tick per (src, dst) pair, at
     * [src * table_nodes_ + dst], for point-to-point FIFO; 0 = no
     * delivery yet. Re-laid when a node attaches after a send. */
    std::vector<Tick> next_delivery_;
    std::size_t table_nodes_ = 0;
};

} // namespace wo

#endif // WO_MEM_INTERCONNECT_HH
