/**
 * @file
 * Lock-throughput study: how the consistency implementation changes the
 * cost of synchronization-heavy code — the Section 6 discussion, live.
 *
 * N processors hammer a shared counter under a lock; we compare the four
 * conforming implementations (SC, old weak ordering, the DRF0 example
 * implementation, and its read-only-sync refinement) and both lock
 * flavours (pure TAS spin vs test-and-test&set).
 *
 *   $ ./lock_throughput [procs] [rounds]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/sc_verifier.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

int
main(int argc, char **argv)
{
    using namespace wo;
    int procs = argc > 1 ? std::atoi(argv[1]) : 4;
    int rounds = argc > 2 ? std::atoi(argv[2]) : 6;

    std::cout << procs << " processors x " << rounds
              << " lock-protected increments\n\n";
    std::cout << std::left << std::setw(20) << "workload" << std::setw(16)
              << "policy" << std::setw(14) << "finish ticks"
              << std::setw(10) << "counter" << "appears SC\n";

    for (LockKind kind : {LockKind::Tas, LockKind::Tttas}) {
        MultiProgram mp = lockCounter(kind, procs, rounds);
        for (PolicyKind pk :
             {PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
              PolicyKind::Def2Drf1}) {
            SystemConfig cfg = machineOrThrow("net-cold").config(pk);
            cfg.maxTicks = 50000000;
            System sys(mp, cfg);
            if (!sys.run()) {
                std::cout << std::setw(20) << mp.name() << std::setw(16)
                          << toString(pk) << "DID NOT FINISH\n";
                continue;
            }
            RunResult r = sys.result();
            bool sc = verifySc(sys.trace()).sc();
            std::cout << std::setw(20) << mp.name() << std::setw(16)
                      << toString(pk) << std::setw(14) << sys.finishTick()
                      << std::setw(10)
                      << r.finalMemory.at(kLockCounterAddr)
                      << (sc ? "yes" : "NO") << "\n";
        }
    }
    std::cout << "\nEvery row must show counter == " << procs * rounds
              << " and appear SC: mutual exclusion built\nfrom DRF0 "
                 "primitives is exact on every conforming "
                 "implementation.\n";
    return 0;
}
