/**
 * @file
 * Whole-system assembly: processors x interconnect x memory organization
 * x consistency policy.
 *
 * The four hardware configurations of Figure 1 are all expressible:
 * {bus, general network} x {cache-less, cache-coherent}, each under any
 * of the consistency policies (where legal: the Definition 2
 * implementations need caches for their reserve bits).
 */

#ifndef WO_SYSTEM_SYSTEM_HH
#define WO_SYSTEM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/cache.hh"
#include "coherence/directory.hh"
#include "coherence/mid_cache.hh"
#include "consistency/policy.hh"
#include "core/trace.hh"
#include "cpu/processor.hh"
#include "cpu/program.hh"
#include "mem/interconnect.hh"
#include "mem/memory_module.hh"
#include "mem/uncached_port.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace wo {

class CoverageMap;
class TraceSink;

/** Which interconnect family to build. */
enum class InterconnectKind { Bus, Network };

/** Full system configuration. */
struct SystemConfig
{
    bool cached = true;
    InterconnectKind interconnect = InterconnectKind::Network;
    PolicyKind policy = PolicyKind::Def2Drf0;

    /** Coherence protocol run by every cache and directory (cached
     * systems; handed to each L1, L2 and directory at build time). */
    ProtocolKind protocol = ProtocolKind::Msi;

    /** Cache hierarchy depth: 1 = private L1 per processor (the seed
     * topology), 2 = private L1 + private L2 per processor, with the
     * directory behind the L2s. */
    int cacheLevels = 1;

    /** Enable processor write buffers (only where the policy allows
     * them: Relaxed). */
    bool writeBuffer = false;

    int numMemModules = 2; ///< memory banks (cache-less systems)
    int numDirs = 1;       ///< directory banks (cache-coherent systems)

    Bus::Config bus;
    GeneralNetwork::Config net;
    CacheConfig cache;
    MidCacheConfig l2; ///< per-processor L2 (cacheLevels == 2)

    /** Give up (livelock guard) after this many ticks. */
    Tick maxTicks = 5000000;

    /** Pre-load every touched location Shared into every cache (a warm
     * steady state; directory sharer lists are set to match). */
    bool warmCaches = false;

    /** Structured trace sink wired into every component (non-owning;
     * must outlive the System). Null = tracing disabled: no events, no
     * extra stats, byte-identical reports. */
    TraceSink *traceSink = nullptr;

    /**
     * Campaign coverage counters (non-owning; must outlive the run).
     * runStreaming installs it thread-locally for the run's duration,
     * so instrumented sites (protocol lookups, stall reasons, latency
     * buckets) record into it. Null = coverage disabled: one
     * thread-local load and branch per site, nothing recorded.
     * Recording is passive (never touches stats or simulator state),
     * so reports stay byte-identical either way. Like traceSink, the
     * pointer is exempt from structural compatibility: the map is the
     * campaign's, survives System::reuseFor between pooled jobs, and owes
     * the System nothing when the pool drops it.
     */
    CoverageMap *coverage = nullptr;

    bool operator==(const SystemConfig &) const = default;
};

/** A complete simulated multiprocessor running one workload. */
class System
{
  public:
    /** Build the system; throws std::invalid_argument on illegal
     * configuration combinations (see checkConfig). */
    System(const MultiProgram &program, const SystemConfig &cfg);

    /**
     * Throw std::invalid_argument, with the constructor's message, if
     * System(@p program, @p cfg) would reject the pair: a policy that
     * needs caches on a cache-less machine, write buffers the policy
     * forbids, no memory/dir bank, no processors, or an illegal cache
     * depth. Lets a campaign skip an unrunnable cell once, at plan time.
     */
    static void checkConfig(const MultiProgram &program,
                            const SystemConfig &cfg);

    /**
     * Run to completion.
     *
     * @return true if every processor halted, every access completed and
     *         the protocol drained before the tick limit.
     */
    bool run();

    /**
     * Run to completion in tick-bounded chunks, invoking @p onChunk
     * between chunks (and once after the final one). The callback may
     * inspect the event queue's current tick and retire the finalized
     * trace prefix through mutableTrace() — the trace-replay pipeline's
     * hook for keeping resident trace memory O(window) during a run.
     * With @p chunkTicks == 0 this is exactly run().
     *
     * @return true if every processor halted, every access completed and
     *         the protocol drained before the tick limit.
     */
    bool runStreaming(Tick chunkTicks,
                      const std::function<void(System &)> &onChunk);

    /** Mutable trace access for windowed retention (popFront) by the
     * streaming-run callback. Retiring accesses that are not yet
     * globally performed is a caller bug: the simulator still patches
     * their commit/gp ticks in place. */
    ExecutionTrace &mutableTrace() { return trace_; }

    /**
     * Make this System run @p program under @p cfg as if freshly
     * constructed, if it can: @p program must have the processor count
     * the system was built with, and @p cfg must be structurally
     * compatible with the built topology (every field equal except
     * net.seed, maxTicks, traceSink and coverage, the four that vary
     * between jobs of one campaign cell). Returns false, changing
     * nothing, otherwise. On success every component's state, the
     * statistics and the trace are cleared (pooled event slabs are
     * kept), and the program is installed as construction does. The
     * system keeps a copy of the program and of its touched addresses
     * and re-derives them only when @p program differs from the one it
     * holds, so reusing it for the same program copies nothing.
     * SystemPool's reuse path.
     */
    bool reuseFor(const MultiProgram &program, const SystemConfig &cfg);

    /** Observable outcome (registers padded to the workload's register
     * count so results compare against idealized outcomes). */
    RunResult result() const;

    /** Final value of @p addr: the directory's (or memory module's)
     * copy, overridden by a dirty (Modified or Owned) cached copy, the
     * innermost level winning. result() reads memory through this, and
     * an address the program never touches reads its initial value, 0.
     * Allocates nothing. */
    Word finalValue(Addr addr) const;

    /** Register @p reg of processor @p p, 0 where result() would pad or
     * for a processor that does not exist; reads in place. */
    Word registerValue(ProcId p, int reg) const;

    /** The recorded execution trace. */
    const ExecutionTrace &trace() const { return trace_; }

    /** Simulation statistics. */
    const StatSet &stats() const { return stats_; }

    /** Tick at which the last processor halted. */
    Tick finishTick() const;

    /** Access to one processor (stall counters, registers). */
    Processor &processor(ProcId p) { return *procs_.at(p); }
    const Processor &processor(ProcId p) const { return *procs_.at(p); }

    /** The cache of processor @p p (nullptr in cache-less systems). */
    Cache *cache(ProcId p);

    /** The event queue (advanced diagnostics / tests). */
    EventQueue &eventQueue() { return eq_; }

    /** The interconnect (message-latency histogram access). */
    Interconnect &interconnect() { return *net_; }
    const Interconnect &interconnect() const { return *net_; }

    /** Human-readable configuration summary. */
    std::string description() const;

    /**
     * Audit end-of-run coherence invariants (cache-coherent systems):
     *  - at most one exclusive copy of each line, and the directory's
     *    owner matches;
     *  - every cached shared copy is listed in the directory's sharer
     *    set (the set may be a stale superset after silent drops);
     *  - shared copies hold the directory's memory value;
     *  - no directory line is still busy.
     *
     * @return human-readable violations; empty means coherent.
     */
    std::vector<std::string> auditCoherence() const;

  private:
    /** Every cfg field equal except net.seed, maxTicks, traceSink and
     * coverage. */
    bool structurallyCompatible(const SystemConfig &cfg) const;

    /**
     * Install @p program (same processor count) as the next workload:
     * initial memory values are poked exactly as construction does
     * (including warm-cache pre-loading) and every processor is rebound
     * and reset.
     */
    void loadProgram(const MultiProgram &program);

    /** Give every per-address table (directory lines, cache lines and
     * MSHRs, memory words) exactly the addresses of touched_ it serves;
     * run once per program change. */
    void bindAddrs();

    /** Rewire the structured trace sink on every component (nullptr
     * detaches); construction and reuseFor apply cfg.traceSink
     * through this. */
    void setTraceSink(TraceSink *sink);

    MultiProgram program_;
    /** program_.touchedAddrs(), refreshed whenever program_ changes. */
    std::vector<Addr> touched_;
    /** bindAddrs()'s per-bank share of touched_ (reused). */
    std::vector<Addr> bank_addrs_;
    SystemConfig cfg_;
    EventQueue eq_;
    StatSet stats_;
    ExecutionTrace trace_;
    std::unique_ptr<Interconnect> net_;
    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<std::unique_ptr<MidCache>> mids_;
    std::vector<std::unique_ptr<UncachedPort>> uncached_ports_;
    std::vector<std::unique_ptr<Directory>> dirs_;
    std::vector<std::unique_ptr<MemoryModule>> mems_;
    std::vector<std::unique_ptr<Processor>> procs_;
    /** system.finish_tick and system.completed, resolved by the first
     * run at the point a by-name set would intern them. */
    StatHandle finishTickStat_;
    StatHandle completedStat_;
};

} // namespace wo

#endif // WO_SYSTEM_SYSTEM_HH
