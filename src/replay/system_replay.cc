#include "replay/system_replay.hh"

#include <map>
#include <stdexcept>

#include "cpu/program_builder.hh"
#include "system/machine_spec.hh"
#include "workload/campaign.hh"

namespace wo {

namespace {

/** Barrier episode layout relative to the recorded barrier address. */
constexpr Addr kGenOff = 0;   ///< generation flag (sync)
constexpr Addr kCountOff = 1; ///< arrival counter (lock-protected data)
constexpr Addr kLockOff = 2;  ///< counter lock (sync)

void
emitLockAcquire(ProgramBuilder &b, Addr lock, const std::string &label)
{
    // Test-and-test&set: spin read-only while held, then claim.
    b.label(label)
        .test(0, lock)
        .bne(0, 0, label)
        .tas(0, lock, 1)
        .bne(0, 0, label);
}

} // namespace

MultiProgram
buildReplayProgram(ReplayTraceReader &reader, const std::string &name)
{
    reader.rewind();
    const int nthreads = reader.numThreads();

    // Pass 1: participant count per barrier address (threads that meet
    // there), to resolve the "last arrival" compare immediates.
    std::map<Addr, int> participants;
    for (int t = 0; t < nthreads; ++t) {
        std::map<Addr, bool> seen;
        ReplayRecord r;
        while (reader.next(t, r)) {
            if (r.op == ReplayOp::BarrierWait && !seen[r.addr]) {
                seen[r.addr] = true;
                ++participants[r.addr];
            }
        }
    }
    if (reader.failed())
        throw std::runtime_error("corrupt trace: " + reader.error());
    reader.rewind();

    // Pass 2: code generation. Spin-loop labels are numbered per thread.
    MultiProgram mp(name);
    for (int t = 0; t < nthreads; ++t) {
        ProgramBuilder b;
        int lbl = 0;
        std::map<Addr, Word> episode; // completed episodes per barrier
        ReplayRecord r;
        while (reader.next(t, r)) {
            switch (r.op) {
            case ReplayOp::Read:
                b.load(0, r.addr);
                break;
            case ReplayOp::Write:
                b.store(r.addr, r.value);
                break;
            case ReplayOp::Rmw:
                b.tas(0, r.addr, r.value);
                break;
            case ReplayOp::SyncRead: {
                // Recorded hand-off: spin until the flag shows the
                // recorded value (re-synchronization, not spin replay).
                std::string w = "w" + std::to_string(lbl++);
                b.label(w).test(0, r.addr).bne(0, r.value, w);
                break;
            }
            case ReplayOp::SyncWrite:
                b.unset(r.addr, r.value);
                break;
            case ReplayOp::LockAcquire:
                emitLockAcquire(b, r.addr, "l" + std::to_string(lbl++));
                break;
            case ReplayOp::LockRelease:
                b.unset(r.addr, 0);
                break;
            case ReplayOp::BarrierWait: {
                const Word gen = ++episode[r.addr];
                const int count = participants[r.addr];
                const Addr genA = r.addr + kGenOff;
                const Addr cntA = r.addr + kCountOff;
                const Addr lockA = r.addr + kLockOff;
                std::string pre = "b" + std::to_string(lbl++);
                emitLockAcquire(b, lockA, pre + "a");
                b.load(1, cntA)
                    .addi(1, 1, 1)
                    .storeReg(cntA, 1)
                    .bne(1, static_cast<Word>(count), pre + "w");
                // Last arrival: reset the counter and publish the
                // generation while still holding the lock.
                b.store(cntA, 0)
                    .unset(genA, gen)
                    .unset(lockA, 0)
                    .movi(1, 0)
                    .beq(1, 0, pre + "d");
                // Everyone else: release, then wait for the episode.
                b.label(pre + "w").unset(lockA, 0);
                b.label(pre + "s").test(0, genA).bne(0, gen, pre + "s");
                b.label(pre + "d");
                break;
            }
            }
        }
        b.halt();
        mp.addProgram(b.build());
    }
    for (const auto &[addr, value] : reader.initials())
        mp.setInitial(addr, value);
    reader.rewind();
    return mp;
}

SystemReplayResult
replayOnSystem(ReplayTraceReader &reader, const SystemReplayOptions &opt)
{
    SystemReplayResult res;
    MultiProgram program = buildReplayProgram(reader, "replay");

    const MachineSpec &spec = machineOrThrow(opt.machine);
    SystemConfig cfg = spec.config(opt.policy, opt.netSeed);

    StreamingDrf0Checker checker(program.numProcs(), opt.mode);
    auto drain = [&](System &sys) {
        checker.drainWindow(sys.trace(), sys.eventQueue().now());
        if (opt.window > 0) {
            ExecutionTrace &tr = sys.mutableTrace();
            int excess = tr.resident() - opt.window;
            if (excess > 0)
                tr.popFront(std::min(checker.retireReady(tr), excess));
        }
    };

    std::string key = "replay/" + opt.machine + "/" +
                      std::to_string(static_cast<int>(opt.policy));
    System &sys = workerSystemPool().acquire(key, program, cfg);
    bool completed = sys.runStreaming(opt.chunkTicks, drain);
    checker.finish(sys.trace());
    res.ok = completed;
    if (!completed)
        res.error = "replay run did not complete (tick limit?)";
    res.raceFree = checker.raceFree();
    res.races = checker.sortedRaces();
    res.accesses = checker.consumed();
    res.eventsRetired = sys.trace().retired();
    res.windowHighWater = sys.trace().windowHighWater();
    res.finishTick = sys.finishTick();
    return res;
}

} // namespace wo
