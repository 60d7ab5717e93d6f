#include "replay/trace_gen.hh"

#include "sim/rng.hh"

namespace wo {

namespace {

// Address map shared by the generators. Every generator reuses a bounded
// set of locations (ring-buffered where a workload logically streams), so
// detector and trace state stay O(1) in trace length.
constexpr Addr kLockAddr = 1000;
constexpr Addr kBarrierAddr = 1001;
constexpr Addr kRaceAddr = 1999;
constexpr Addr kSharedBase = 2000;  ///< spinlock-protected counters
constexpr Addr kCellBase = 3000;    ///< barrier round cells
constexpr Addr kRingBase = 4000;    ///< producer-consumer rings
constexpr Addr kPrivateBase = 8000; ///< per-thread private scratch
constexpr int kCells = 64;          ///< ring depth / cell-reuse window
constexpr Addr kPairStride = 3 * kCells; ///< cells + flags + acks per pair

void
appendRaceWrite(ReplayTraceWriter &w)
{
    // A plain write as a thread's final record: no program-order
    // successor can reach a synchronization operation, so two of these on
    // different threads are unordered under every schedule.
    w.append({ReplayOp::Write, kRaceAddr, 1});
}

/** threads x rounds of lock-protected critical sections over a shared
 * counter array. */
bool
writeSpinlockTrace(const std::string &path, const TraceGenConfig &cfg)
{
    ReplayTraceWriter w(path, cfg.threads);
    for (int t = 0; t < cfg.threads; ++t) {
        w.beginThread(t);
        Rng rng(cfg.seed * 1000003 + static_cast<std::uint64_t>(t));
        for (int r = 0; r < cfg.rounds; ++r) {
            w.append({ReplayOp::LockAcquire, kLockAddr, 0});
            for (int k = 0; k < cfg.opsPerRound; ++k) {
                Addr a = kSharedBase + static_cast<Addr>(rng.below(kCells));
                if (rng.below(2) == 0)
                    w.append({ReplayOp::Read, a, 0});
                else
                    w.append({ReplayOp::Write, a, rng.below(1 << 20)});
            }
            w.append({ReplayOp::LockRelease, kLockAddr, 0});
        }
        if (cfg.injectRace && t < 2)
            appendRaceWrite(w);
    }
    return w.close();
}

/** Bulk-synchronous rounds: thread 0 publishes a per-round cell, everyone
 * meets at a barrier, all threads read it, second barrier, repeat. */
bool
writeBarrierTrace(const std::string &path, const TraceGenConfig &cfg)
{
    ReplayTraceWriter w(path, cfg.threads);
    for (int t = 0; t < cfg.threads; ++t) {
        w.beginThread(t);
        for (int r = 0; r < cfg.rounds; ++r) {
            Addr cell = kCellBase + static_cast<Addr>(r % kCells);
            if (t == 0) {
                // Publisher: fill this round's cells before the meet.
                for (int k = 0; k < cfg.opsPerRound; ++k) {
                    Addr a = kCellBase +
                             static_cast<Addr>((r + k) % kCells);
                    w.append({ReplayOp::Write, a,
                              static_cast<Word>(r * 31 + k)});
                }
            }
            w.append({ReplayOp::BarrierWait, kBarrierAddr, 0});
            for (int k = 0; k < cfg.opsPerRound; ++k) {
                Addr a = kCellBase + static_cast<Addr>((r + k) % kCells);
                w.append({ReplayOp::Read, a, 0});
            }
            (void)cell;
            // Second meet so the next round's publisher writes cannot
            // race with this round's readers.
            w.append({ReplayOp::BarrierWait, kBarrierAddr, 0});
        }
        if (cfg.injectRace && t < 2)
            appendRaceWrite(w);
    }
    return w.close();
}

/** Flag hand-off pipeline: producer threads write item cells then raise a
 * per-item flag; consumer threads wait on the flag and read the cells. */
bool
writeProducerConsumerTrace(const std::string &path, const TraceGenConfig &cfg)
{
    ReplayTraceWriter w(path, cfg.threads);
    const int pairs = cfg.threads / 2;
    for (int t = 0; t < cfg.threads; ++t) {
        w.beginThread(t);
        const int pair = t / 2;
        const bool producer = (t % 2) == 0;
        if (pair >= pairs) {
            // Odd thread count: the spare thread does private work only.
            Addr a = kPrivateBase + static_cast<Addr>(t);
            for (int r = 0; r < cfg.rounds; ++r)
                w.append({ReplayOp::Write, a, static_cast<Word>(r)});
            continue;
        }
        const Addr cells =
            kRingBase + static_cast<Addr>(pair) * kPairStride;
        const Addr flags = cells + kCells;
        const Addr acks = flags + kCells;
        for (int i = 0; i < cfg.rounds; ++i) {
            const Addr slot = static_cast<Addr>(i % kCells);
            const Word gen = static_cast<Word>(i / kCells) + 1;
            if (producer) {
                // Back-pressure: wait for the consumer's ack of the
                // previous generation before reusing the slot.
                if (gen > 1)
                    w.append({ReplayOp::SyncRead, acks + slot, gen - 1});
                for (int k = 0; k < cfg.opsPerRound; ++k)
                    w.append({ReplayOp::Write, cells + slot,
                              static_cast<Word>(i * 7 + k)});
                w.append({ReplayOp::SyncWrite, flags + slot, gen});
            } else {
                w.append({ReplayOp::SyncRead, flags + slot, gen});
                for (int k = 0; k < cfg.opsPerRound; ++k)
                    w.append({ReplayOp::Read, cells + slot, 0});
                w.append({ReplayOp::SyncWrite, acks + slot, gen});
            }
        }
        if (cfg.injectRace && t < 2)
            appendRaceWrite(w);
    }
    return w.close();
}

} // namespace

bool
writeWorkloadTrace(const std::string &workload, const std::string &path,
                   const TraceGenConfig &cfg)
{
    if (workload == "spinlock")
        return writeSpinlockTrace(path, cfg);
    if (workload == "barrier")
        return writeBarrierTrace(path, cfg);
    if (workload == "prodcons")
        return writeProducerConsumerTrace(path, cfg);
    return false;
}

} // namespace wo
