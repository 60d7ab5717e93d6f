#include "replay/replay_engine.hh"

#include "sim/rng.hh"

namespace wo {

ReplayEngine::ReplayEngine(ReplayTraceReader &reader, const ReplayOptions &opt)
    : reader_(reader), opt_(opt), checker_(reader.numThreads(), opt.mode)
{
    threads_.assign(static_cast<std::size_t>(reader.numThreads()), {});
    liveThreads_ = reader.numThreads();
    for (const auto &[addr, value] : reader.initials()) {
        mem_[addr] = value;
        trace_.setInitial(addr, value);
    }
}

Word
ReplayEngine::load(Addr a) const
{
    auto it = mem_.find(a);
    return it == mem_.end() ? 0 : it->second;
}

void
ReplayEngine::emit(int t, AccessKind kind, Addr addr, Word valueRead,
                   Word valueWritten)
{
    Access a;
    a.proc = t;
    a.poIndex = threads_[static_cast<std::size_t>(t)].poIndex++;
    a.kind = kind;
    a.addr = addr;
    a.valueRead = valueRead;
    a.valueWritten = valueWritten;
    a.commitTick = tick_;
    a.gpTick = tick_;
    ++tick_;
    int id = trace_.add(a);
    checker_.onAccess(trace_.at(id));
}

void
ReplayEngine::maybeRetire()
{
    if (opt_.window <= 0)
        return;
    // Retire in half-window batches. popFront() costs O(retired)
    // amortized at any batch size; the batch fixes the reported window
    // high-water mark (window + window / 2).
    if (trace_.resident() >= opt_.window + opt_.window / 2) {
        int n = checker_.retireReady(trace_);
        int excess = trace_.resident() - opt_.window;
        trace_.popFront(std::min(n, excess));
    }
}

bool
ReplayEngine::openReadyBarriers()
{
    bool opened = false;
    for (auto &[addr, b] : barriers_) {
        if (b.arrived > 0 && b.arrived >= liveThreads_) {
            b.arrived = 0;
            ++b.gen;
            opened = true;
        }
    }
    return opened;
}

bool
ReplayEngine::tryStep(int t)
{
    ThreadState &ts = threads_[static_cast<std::size_t>(t)];
    if (ts.done)
        return false;

    ReplayRecord r;
    if (!reader_.peek(t, r)) {
        ts.done = true;
        --liveThreads_;
        return false;
    }

    if (ts.inBarrier) {
        Barrier &b = barriers_[r.addr];
        if (b.gen <= ts.barrierGen)
            return false; // still waiting for the episode to open
        // Exit access: acquire the release clock left by the last
        // arrival, ordering every pre-barrier access before us.
        ts.inBarrier = false;
        emit(t, AccessKind::SyncRead, r.addr, b.gen, 0);
        reader_.next(t, r);
        ++records_;
        return true;
    }

    switch (r.op) {
    case ReplayOp::Read:
        emit(t, AccessKind::DataRead, r.addr, load(r.addr), 0);
        break;
    case ReplayOp::Write:
        mem_[r.addr] = r.value;
        emit(t, AccessKind::DataWrite, r.addr, 0, r.value);
        break;
    case ReplayOp::Rmw: {
        Word &slot = mem_[r.addr];
        const Word old = slot;
        slot = r.value;
        emit(t, AccessKind::SyncRmw, r.addr, old, r.value);
        break;
    }
    case ReplayOp::SyncRead:
        if (load(r.addr) != r.value)
            return false; // flag wait: re-synchronize, don't replay spins
        emit(t, AccessKind::SyncRead, r.addr, r.value, 0);
        break;
    case ReplayOp::SyncWrite:
        mem_[r.addr] = r.value;
        emit(t, AccessKind::SyncWrite, r.addr, 0, r.value);
        break;
    case ReplayOp::LockAcquire: {
        Word &slot = mem_[r.addr];
        if (slot != 0)
            return false; // lock held
        slot = 1;
        emit(t, AccessKind::SyncRmw, r.addr, 0, 1);
        break;
    }
    case ReplayOp::LockRelease:
        mem_[r.addr] = 0;
        emit(t, AccessKind::SyncWrite, r.addr, 0, 0);
        break;
    case ReplayOp::BarrierWait: {
        Barrier &b = barriers_[r.addr];
        ts.inBarrier = true;
        ts.barrierGen = b.gen;
        ++b.arrived;
        // Arrival: a sync rmw joining this thread's clock into the
        // episode's release chain.
        emit(t, AccessKind::SyncRmw, r.addr,
             static_cast<Word>(b.arrived - 1),
             static_cast<Word>(b.arrived));
        if (b.arrived >= liveThreads_) {
            b.arrived = 0;
            ++b.gen;
        }
        return true; // record consumed on exit, not on arrival
    }
    }
    reader_.next(t, r);
    ++records_;
    return true;
}

ReplayResult
ReplayEngine::run()
{
    ReplayResult res;
    Rng rng(opt_.seed);
    const int n = reader_.numThreads();

    // Threads with empty record streams are done from the start.
    for (int t = 0; t < n; ++t) {
        if (reader_.remaining(t) == 0) {
            threads_[static_cast<std::size_t>(t)].done = true;
            --liveThreads_;
        }
    }

    while (liveThreads_ > 0 && !reader_.failed()) {
        // Pick a random live thread; linear-probe to the next one that
        // can make progress.
        int start = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        bool stepped = false;
        for (int k = 0; k < n && !stepped; ++k)
            stepped = tryStep((start + k) % n);
        if (stepped) {
            maybeRetire();
            continue;
        }
        // Everyone is blocked. A barrier may have become openable when a
        // thread exited (liveThreads_ dropped); otherwise it's deadlock.
        if (liveThreads_ > 0 && !openReadyBarriers()) {
            res.ok = false;
            res.error = "replay deadlock: all live threads blocked";
            break;
        }
    }

    if (reader_.failed()) {
        res.ok = false;
        res.error = "corrupt trace: " + reader_.error();
    }
    checker_.finish(trace_);
    res.raceFree = checker_.raceFree();
    res.races = checker_.sortedRaces();
    res.recordsReplayed = records_;
    res.accesses = checker_.consumed();
    res.eventsRetired = trace_.retired();
    res.windowHighWater = trace_.windowHighWater();
    for (const auto &[addr, value] : mem_)
        res.finalMemory[addr] = value;
    return res;
}

} // namespace wo
