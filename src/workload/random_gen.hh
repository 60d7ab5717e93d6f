/**
 * @file
 * Program generators: the workloads a parameter sweeps.
 *
 * Every fixed-shape program (Dekker/SB, IRIW, message passing, Figure
 * 3, Peterson, the two-processor lock counters and barrier) lives only
 * in the .litmus corpus (tests/litmus/); load it with
 * litmus_dsl::compileLitmusFile and read its addresses through
 * CompiledLitmus::addrOf. The generators below cover what a file cannot
 * give, a processor count, a round count or a seed:
 *
 *  - lockCounter() and barrier(): the Section 6 spin-lock counter and a
 *    DRF0 barrier at any size. At two processors (and one round) they
 *    are tas_counter.litmus, tttas_counter.litmus and barrier.litmus,
 *    which tests/test_random_gen.cc pins.
 *  - randomDrf0Program() builds lock-structured programs that obey DRF0
 *    by construction: every shared datum is guarded by exactly one lock,
 *    and all access to it happens inside that lock's critical sections.
 *    These drive the property tests (Definition 2: weak hardware must
 *    appear SC to such programs) and the throughput benchmarks.
 *  - randomRacyProgram() deliberately breaks the discipline with
 *    unguarded shared accesses, for testing that the checkers and the
 *    relaxed systems behave as the paper predicts.
 */

#ifndef WO_WORKLOAD_RANDOM_GEN_HH
#define WO_WORKLOAD_RANDOM_GEN_HH

#include <cstdint>

#include "cpu/program.hh"

namespace wo {

/** The spin lock that lockCounter() takes. */
enum class LockKind
{
    Tas,   ///< spin on TestAndSet alone (program "tas-counter")
    Tttas, ///< spin on a read-only Test, then TestAndSet ("tttas-counter")
};

/** lockCounter()'s shared counter; its lock sits at address 1. */
inline constexpr Addr kLockCounterAddr = 0;

/**
 * @p procs processors each increment a shared counter @p rounds times
 * inside a spin lock. The TAS lock is the workload the DRF0 example
 * implementation serializes heavily; the Test spin of the Tttas lock is
 * Section 6's read-only synchronization in anger.
 */
MultiProgram lockCounter(LockKind kind, int procs, int rounds);

/**
 * A barrier built from DRF0 primitives. Processor p publishes a datum
 * (1000 + p at address 10 + p), TAS-locks (lock 101) an increment of the
 * barrier count (a sync variable at 100), and the last arriver Unsets
 * the release flag (102) that everyone spins on with Test. Then each
 * processor reads its neighbour's datum into r3: race-free only if the
 * barrier works.
 */
MultiProgram barrier(int procs);

/** Shape of a generated workload. */
struct RandomWorkloadConfig
{
    int numProcs = 4;

    /** Locks; shared data locations are partitioned among them. */
    int numLocks = 2;

    /** Shared data locations per lock. */
    int locsPerLock = 3;

    /** Private (per-processor) scratch locations. */
    int privateLocs = 2;

    /** Critical sections per processor. */
    int sectionsPerProc = 3;

    /** Shared-data accesses inside each critical section. */
    int opsPerSection = 3;

    /** Private accesses between critical sections. */
    int privateOpsBetween = 2;

    /** Spin (TAS loop) on acquire; if false, a single TAS attempt guards
     * the section and losers skip it — keeps the interleaving space
     * enumerable for exhaustive checks. */
    bool spinAcquire = true;

    std::uint64_t seed = 1;
};

/** Address of lock @p i under @p cfg (also exposed for harnesses). */
Addr lockAddr(const RandomWorkloadConfig &cfg, int i);

/** Generate a DRF0-by-construction workload. */
MultiProgram randomDrf0Program(const RandomWorkloadConfig &cfg);

/** Generate a workload with deliberate data races: like the DRF0
 * generator, but each processor also performs @p unguarded accesses to
 * shared data outside any lock. */
MultiProgram randomRacyProgram(const RandomWorkloadConfig &cfg,
                               int unguarded = 2);

} // namespace wo

#endif // WO_WORKLOAD_RANDOM_GEN_HH
