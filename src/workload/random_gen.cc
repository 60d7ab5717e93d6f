#include "workload/random_gen.hh"

#include <string>

#include "cpu/program_builder.hh"
#include "sim/rng.hh"

namespace wo {

namespace {

/**
 * Address map:
 *   [0, numLocks)                           locks
 *   [numLocks, numLocks + L*locsPerLock)    shared data, partitioned
 *   then privateLocs per processor.
 */
Addr
sharedLocAddr(const RandomWorkloadConfig &cfg, int lock, int k)
{
    return static_cast<Addr>(cfg.numLocks + lock * cfg.locsPerLock + k);
}

Addr
privateLocAddr(const RandomWorkloadConfig &cfg, int proc, int k)
{
    return static_cast<Addr>(cfg.numLocks +
                             cfg.numLocks * cfg.locsPerLock +
                             proc * cfg.privateLocs + k);
}

void
emitPrivateOps(ProgramBuilder &b, const RandomWorkloadConfig &cfg,
               int proc, Rng &rng, Word &next_value)
{
    for (int i = 0; i < cfg.privateOpsBetween; ++i) {
        Addr a = privateLocAddr(cfg, proc,
                                static_cast<int>(rng.below(
                                    std::max(cfg.privateLocs, 1))));
        if (rng.chance(1, 2))
            b.store(a, next_value++);
        else
            b.load(static_cast<int>(rng.below(4)), a);
    }
}

MultiProgram
generate(const RandomWorkloadConfig &cfg, int unguarded)
{
    MultiProgram mp(unguarded > 0 ? "random-racy" : "random-drf0");
    Rng rng(cfg.seed);
    for (int p = 0; p < cfg.numProcs; ++p) {
        ProgramBuilder b;
        Rng prng = rng.split();
        Word next_value = static_cast<Word>(p + 1) * 100000;
        int label_seq = 0;
        for (int s = 0; s < cfg.sectionsPerProc; ++s) {
            emitPrivateOps(b, cfg, p, prng, next_value);

            int lock = static_cast<int>(prng.below(cfg.numLocks));
            Addr la = lockAddr(cfg, lock);
            std::string acq = "acq" + std::to_string(label_seq);
            std::string skip = "skip" + std::to_string(label_seq);
            ++label_seq;
            if (cfg.spinAcquire) {
                b.label(acq).tas(0, la).bne(0, 0, acq);
            } else {
                b.tas(0, la).bne(0, 0, skip);
            }
            for (int o = 0; o < cfg.opsPerSection; ++o) {
                Addr a = sharedLocAddr(
                    cfg, lock,
                    static_cast<int>(prng.below(
                        std::max(cfg.locsPerLock, 1))));
                if (prng.chance(1, 2))
                    b.store(a, next_value++);
                else
                    b.load(static_cast<int>(1 + prng.below(3)), a);
            }
            b.unset(la);
            if (!cfg.spinAcquire)
                b.label(skip);
        }
        // Deliberate races, if requested: raw accesses to shared data.
        for (int u = 0; u < unguarded; ++u) {
            int lock = static_cast<int>(prng.below(cfg.numLocks));
            Addr a = sharedLocAddr(
                cfg, lock,
                static_cast<int>(prng.below(
                    std::max(cfg.locsPerLock, 1))));
            if (prng.chance(1, 2))
                b.store(a, next_value++);
            else
                b.load(static_cast<int>(prng.below(4)), a);
        }
        b.halt();
        mp.addProgram(b.build());
    }
    return mp;
}

} // namespace

Addr
lockAddr(const RandomWorkloadConfig &cfg, int i)
{
    (void)cfg;
    return static_cast<Addr>(i);
}

MultiProgram
randomDrf0Program(const RandomWorkloadConfig &cfg)
{
    return generate(cfg, 0);
}

MultiProgram
randomRacyProgram(const RandomWorkloadConfig &cfg, int unguarded)
{
    return generate(cfg, unguarded);
}

MultiProgram
lockCounter(LockKind kind, int procs, int rounds)
{
    const Addr lock = 1;
    MultiProgram mp(kind == LockKind::Tas ? "tas-counter"
                                          : "tttas-counter");
    for (int p = 0; p < procs; ++p) {
        ProgramBuilder b;
        b.movi(2, 0); // round counter
        b.label("round");
        b.label("acq");
        if (kind == LockKind::Tttas)
            b.label("testspin").test(0, lock).bne(0, 0, "testspin");
        b.tas(0, lock).bne(0, 0, "acq");
        // Critical section: increment the shared counter.
        b.load(1, kLockCounterAddr).addi(1, 1, 1)
            .storeReg(kLockCounterAddr, 1);
        b.unset(lock);
        b.addi(2, 2, 1).bne(2, static_cast<Word>(rounds), "round");
        b.halt();
        mp.addProgram(b.build());
    }
    return mp;
}

MultiProgram
barrier(int procs)
{
    const Addr count = 100, lock = 101, release = 102;
    MultiProgram mp("sync-barrier");
    for (int p = 0; p < procs; ++p) {
        ProgramBuilder b;
        Addr mine = 10 + static_cast<Addr>(p);
        Addr neighbour = 10 + static_cast<Addr>((p + 1) % procs);
        b.store(mine, static_cast<Word>(1000 + p));
        b.label("acq").tas(0, lock).bne(0, 0, "acq");
        // The count is a sync variable, so it is written with Unset.
        b.load(1, count).addi(1, 1, 1).unsetReg(count, 1);
        b.unset(lock);
        // The last arriver releases everyone.
        b.bne(1, static_cast<Word>(procs), "wait").unset(release, 1);
        b.label("wait").test(2, release).beq(2, 0, "wait");
        b.load(3, neighbour).halt();
        mp.addProgram(b.build());
    }
    return mp;
}

} // namespace wo
