/**
 * @file
 * Simulator-accurate trace replay: drive a full System (machine registry
 * x consistency policy) from a recorded trace instead of a hand-written
 * program.
 *
 * The recorded per-thread operation streams are compiled to per-processor
 * Programs (buildReplayProgram): data accesses become load/store,
 * recorded sync hand-offs become Test spin loops, lock episodes become
 * test-and-test&set acquires, and barrier episodes expand to a
 * lock-protected central counter plus a generation flag — all with
 * immediate operands resolved at build time, since a recorded trace fixes
 * every episode statically.
 *
 * replayOnSystem() then runs the program in tick-bounded chunks
 * (System::runStreaming); between chunks a StreamingDrf0Checker drains
 * the finalized prefix of the simulator's trace and the window is retired
 * with popFront(), so resident trace memory is O(window) while the
 * verdict matches the whole-trace oracle. Each replay is one long run on
 * a System of its own.
 */

#ifndef WO_REPLAY_SYSTEM_REPLAY_HH
#define WO_REPLAY_SYSTEM_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/stream_checker.hh"
#include "cpu/program.hh"
#include "replay/trace_format.hh"
#include "system/system.hh"

namespace wo {

/**
 * Compile a recorded trace into per-processor Programs.
 *
 * Barrier episodes at address A use A as the generation flag, A+1 as the
 * arrival counter and A+2 as the counter lock; traces must keep those
 * locations free. Every thread with a BarrierWait at A must execute the
 * same number of episodes at A (bulk-synchronous traces — what the
 * generators produce).
 *
 * Reads the trace twice (barrier participant counts, then code
 * generation); the reader is rewound before and after. Throws
 * std::runtime_error if a record block is corrupt or short.
 */
MultiProgram buildReplayProgram(ReplayTraceReader &reader,
                                const std::string &name);

struct SystemReplayOptions
{
    std::string machine = "bus";
    PolicyKind policy = PolicyKind::Def2Drf0;
    std::uint64_t netSeed = 1;

    /** Resident trace-window target in accesses; 0 retains the whole
     * trace (differential/debug mode, no popFront). */
    int window = 1 << 14;

    /** Simulated ticks between drain callbacks. */
    Tick chunkTicks = 4096;

    RaceDetectMode mode = RaceDetectMode::FirstRace;
};

struct SystemReplayResult
{
    bool ok = false; ///< run completed (halted, drained, coherent exit)
    std::string error;

    bool raceFree = true;
    std::vector<Race> races; ///< sorted by id pair

    std::uint64_t accesses = 0; ///< accesses fed to the checker
    std::int64_t eventsRetired = 0;
    int windowHighWater = 0;
    Tick finishTick = 0;
};

SystemReplayResult replayOnSystem(ReplayTraceReader &reader,
                                  const SystemReplayOptions &opt);

} // namespace wo

#endif // WO_REPLAY_SYSTEM_REPLAY_HH
