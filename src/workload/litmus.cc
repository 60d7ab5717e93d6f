#include "workload/litmus.hh"

#include "cpu/program_builder.hh"

namespace wo {

using namespace litmus;

MultiProgram
syncMessagePassing()
{
    MultiProgram mp("sync-mp");
    ProgramBuilder p0, p1;
    p0.store(kData, 42).unset(kSync, 1).halt();
    p1.label("spin").test(0, kSync).beq(0, 0, "spin").load(1, kData)
        .halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    return mp;
}

MultiProgram
figure3Scenario(int work_nops)
{
    MultiProgram mp("figure3");
    ProgramBuilder p0, p1;
    // s starts 0 ("held by P0"); Unset(s, 1) releases; P1's TAS writes 0,
    // acquiring when it reads back 1.
    p0.store(kX, 1).nop(work_nops).unset(kSync, 1).nop(work_nops).halt();
    p1.label("spin")
        .tas(0, kSync, 0)
        .beq(0, 0, "spin")
        .nop(work_nops)
        .load(1, kX)
        .halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    return mp;
}

namespace {

/** Shared body: N procs increment kCounter under a lock @p rounds
 * times. */
MultiProgram
lockCounter(const std::string &name, int num_procs, int rounds,
            bool test_first)
{
    MultiProgram mp(name);
    for (int p = 0; p < num_procs; ++p) {
        ProgramBuilder b;
        b.movi(2, 0); // round counter
        b.label("round");
        b.label("acq");
        if (test_first) {
            // Test-and-TestAndSet: spin with a read-only sync first.
            b.label("testspin")
                .test(0, kLock)
                .bne(0, 0, "testspin");
        }
        b.tas(0, kLock).bne(0, 0, "acq");
        // Critical section: increment the shared counter.
        b.load(1, kCounter).addi(1, 1, 1).storeReg(kCounter, 1);
        b.unset(kLock);
        b.addi(2, 2, 1).bne(2, static_cast<Word>(rounds), "round");
        b.halt();
        mp.addProgram(b.build());
    }
    return mp;
}

} // namespace

MultiProgram
tttasLockCounter(int num_procs, int rounds)
{
    return lockCounter("tttas-counter", num_procs, rounds, true);
}

MultiProgram
tasLockCounter(int num_procs, int rounds)
{
    return lockCounter("tas-counter", num_procs, rounds, false);
}

MultiProgram
syncBarrier(int num_procs)
{
    MultiProgram mp("sync-barrier");
    for (int p = 0; p < num_procs; ++p) {
        ProgramBuilder b;
        Addr mine = 10 + static_cast<Addr>(p);
        Addr neighbour = 10 + static_cast<Addr>((p + 1) % num_procs);
        // Phase 1: publish private datum.
        b.store(mine, static_cast<Word>(1000 + p));
        // Barrier: lock-protected increment of the count.
        b.label("acq").tas(0, kBarrierLock).bne(0, 0, "acq");
        b.load(1, kBarrierCount).addi(1, 1, 1)
            .unsetReg(kBarrierCount, 1); // sync write: count is a sync var
        b.unset(kBarrierLock);
        // Last arriver releases everyone.
        b.bne(1, static_cast<Word>(num_procs), "wait")
            .unset(kBarrierRelease, 1);
        b.label("wait")
            .test(2, kBarrierRelease)
            .beq(2, 0, "wait");
        // Phase 2: read the neighbour's datum.
        b.load(3, neighbour).halt();
        mp.addProgram(b.build());
    }
    return mp;
}

MultiProgram
petersonCounter(bool labeled, int rounds)
{
    using namespace litmus;
    MultiProgram mp(labeled ? "peterson-sync" : "peterson-data");
    for (int i = 0; i < 2; ++i) {
        Addr my_flag = i == 0 ? kPetersonFlag0 : kPetersonFlag1;
        Addr other_flag = i == 0 ? kPetersonFlag1 : kPetersonFlag0;
        Word other = static_cast<Word>(1 - i);
        ProgramBuilder b;
        b.movi(3, 0); // round counter
        b.label("round");
        // Entry protocol: flag[i] = 1; turn = other;
        if (labeled) {
            b.unset(my_flag, 1).unset(kPetersonTurn, other);
        } else {
            b.store(my_flag, 1).store(kPetersonTurn, other);
        }
        // Spin while (flag[other] && turn == other).
        b.label("spin");
        if (labeled)
            b.test(0, other_flag);
        else
            b.load(0, other_flag);
        b.beq(0, 0, "enter");
        if (labeled)
            b.test(1, kPetersonTurn);
        else
            b.load(1, kPetersonTurn);
        b.beq(1, other, "spin");
        b.label("enter");
        // Critical section: non-atomic increment.
        b.load(2, kPetersonCounter)
            .addi(2, 2, 1)
            .storeReg(kPetersonCounter, 2);
        // Exit protocol: flag[i] = 0.
        if (labeled)
            b.unset(my_flag, 0);
        else
            b.store(my_flag, 0);
        b.addi(3, 3, 1).bne(3, static_cast<Word>(rounds), "round");
        b.halt();
        mp.addProgram(b.build());
    }
    return mp;
}

Word
petersonExpectedCount(int rounds)
{
    return static_cast<Word>(2 * rounds);
}

} // namespace wo
