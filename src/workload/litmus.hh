/**
 * @file
 * Parametric litmus builders: the programs whose shape the .litmus
 * corpus (tests/litmus/) cannot express.
 *
 * Fixed-shape programs (Dekker/SB, IRIW, racy message passing, ...)
 * live only in the corpus; load them with
 * litmus_dsl::compileLitmusFile and judge a run with
 * litmus_dsl::evalCond on the file's clause. The builders below stay
 * because their callers need what a file cannot give:
 *
 *  - a parameter: the processor count and rounds of the lock counters
 *    and the barrier, the work between Figure 3's operations, and
 *    Peterson's rounds;
 *  - an address map: the DSL interns data locations first, then sync
 *    locations, in declaration order, while these builders use the
 *    fixed addresses below (syncMessagePassing's flag sits at 2, the
 *    DSL would put it at 1). Runs that pin golden numbers to these
 *    maps differ under the DSL's.
 *
 * tests/test_litmus_roundtrip.cc proves each builder is structurally
 * equal to its corpus file (modulo an address renaming).
 */

#ifndef WO_WORKLOAD_LITMUS_HH
#define WO_WORKLOAD_LITMUS_HH

#include "cpu/program.hh"

namespace wo {

/**
 * DRF0 message passing: P0 writes data then Unsets a sync flag; P1 spins
 * with Test (read-only sync), then reads data.
 */
MultiProgram syncMessagePassing();

/**
 * The Figure 3 scenario. P0: W(x); other work; Unset(s); more work.
 * P1: TestAndSet(s) until acquired; other work; R(x).
 *
 * @param work_nops cycles of "other work" between the interesting ops.
 */
MultiProgram figure3Scenario(int work_nops = 3);

/**
 * N processors each increment a shared counter @p rounds times inside a
 * test-and-test&set lock (Test spin, then TAS; Section 6's example of
 * read-only synchronization in anger).
 */
MultiProgram tttasLockCounter(int num_procs, int rounds);

/**
 * Same workload with a pure TAS spin lock (no read-only Test), which the
 * DRF0 example implementation serializes heavily.
 */
MultiProgram tasLockCounter(int num_procs, int rounds);

/**
 * A sense-reversing style barrier, implemented with DRF0 primitives:
 * each of N processors TAS-increments a barrier count, and the last one
 * Unsets a release flag all others spin on with Test.
 * Each processor writes private data before the barrier and reads a
 * neighbour's data after it (race-free only if the barrier works).
 */
MultiProgram syncBarrier(int num_procs);

/**
 * Peterson's 2-process mutual-exclusion algorithm, with a non-atomic
 * shared-counter increment in the critical section.
 *
 * @param labeled false: flags and turn are ordinary data accesses — the
 *        classic algorithm as written for sequentially consistent
 *        memory. It is NOT data-race-free, so weakly ordered hardware
 *        promises nothing: increments can be lost.
 *        true: every flag/turn access uses a synchronization operation
 *        (Test/Unset), making the program DRF0 — it then works on every
 *        conforming implementation.
 * @param rounds critical-section entries per processor.
 */
MultiProgram petersonCounter(bool labeled, int rounds = 1);

/** Expected final counter value for petersonCounter. */
Word petersonExpectedCount(int rounds);

/** Addresses used by the litmus builders. */
namespace litmus {
inline constexpr Addr kX = 0;
inline constexpr Addr kData = 0;
inline constexpr Addr kSync = 2;
inline constexpr Addr kCounter = 0;
inline constexpr Addr kLock = 1;
inline constexpr Addr kBarrierCount = 100;
inline constexpr Addr kBarrierLock = 101;
inline constexpr Addr kBarrierRelease = 102;
inline constexpr Addr kPetersonFlag0 = 200;
inline constexpr Addr kPetersonFlag1 = 201;
inline constexpr Addr kPetersonTurn = 202;
inline constexpr Addr kPetersonCounter = 203;
} // namespace litmus

} // namespace wo

#endif // WO_WORKLOAD_LITMUS_HH
