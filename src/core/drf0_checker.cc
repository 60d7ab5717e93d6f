#include "core/drf0_checker.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/idealized.hh"
#include "core/stream_checker.hh"
#include "sim/rng.hh"

namespace wo {

namespace {

/** Sort races the way the historical bitset checker enumerated them:
 * addresses ascending, then pair ids ascending (both members of a pair
 * share an address, so keying on the first suffices). */
void
normalizeRaces(const ExecutionTrace &trace, std::vector<Race> &races)
{
    std::sort(races.begin(), races.end(),
              [&trace](const Race &a, const Race &b) {
                  Addr aa = trace.at(a.first).addr;
                  Addr ab = trace.at(b.first).addr;
                  if (aa != ab)
                      return aa < ab;
                  return a < b;
              });
}

} // namespace

Drf0TraceReport
checkTrace(const ExecutionTrace &trace)
{
    StreamingDrf0Checker checker(trace.numProcs(), RaceDetectMode::AllRaces);
    checker.finish(trace);
    Drf0TraceReport report;
    report.races = checker.races();
    report.raceFree = report.races.empty();
    normalizeRaces(trace, report.races);
    return report;
}

Drf0TraceReport
checkTraceBitset(const ExecutionTrace &trace)
{
    Drf0TraceReport report;
    HappensBefore hb(trace);

    // Group accesses by address; only same-address pairs can conflict.
    std::map<Addr, std::vector<int>> by_addr;
    for (const auto &a : trace.accesses())
        by_addr[a.addr].push_back(a.id);

    for (const auto &[addr, ids] : by_addr) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            for (std::size_t j = i + 1; j < ids.size(); ++j) {
                const Access &x = trace.at(ids[i]);
                const Access &y = trace.at(ids[j]);
                if (!conflict(x, y))
                    continue;
                if (!hb.orderedEither(x.id, y.id)) {
                    report.raceFree = false;
                    report.races.push_back({x.id, y.id});
                }
            }
        }
    }
    return report;
}

Drf0ProgramReport
checkProgram(const MultiProgram &program, const Drf0CheckLimits &limits)
{
    Drf0ProgramReport report;
    EnumLimits el;
    el.maxStepsPerExecution = limits.maxStepsPerExecution;
    el.maxExecutions = limits.maxExecutions;

    bool exhaustive = forEachExecution(
        program, el,
        [&](const ExecutionTrace &trace, const RunResult &, bool) {
            ++report.executions;
            Drf0TraceReport tr = checkTrace(trace);
            if (!tr.raceFree) {
                report.obeysDrf0 = false;
                report.witness = trace;
                report.witnessReport = tr;
                return false; // one racy witness is enough
            }
            return true;
        });
    if (!exhaustive && report.obeysDrf0)
        report.bounded = true;
    return report;
}

Drf0ProgramReport
checkProgramSampled(const MultiProgram &program, int num_schedules,
                    std::uint64_t seed, int max_steps_per_execution)
{
    Drf0ProgramReport report;
    report.bounded = true;
    Rng rng(seed);
    int nprocs = program.numProcs();
    RaceDetector det(nprocs, RaceDetectMode::FirstRace);
    for (int s = 0; s < num_schedules && report.obeysDrf0; ++s) {
        // Snapshot the RNG so a racy schedule can be replayed in full
        // for the witness (the stream itself is shared across schedules,
        // exactly as the offline checker consumed it).
        Rng sched_rng = rng;
        IdealizedMachine m(program);
        det.reset(nprocs);
        m.attachRaceDetector(&det);
        int steps = 0;
        while (!m.allHalted() && steps < max_steps_per_execution) {
            // Pick a random non-halted processor.
            ProcId p = static_cast<ProcId>(rng.below(nprocs));
            while (m.halted(p))
                p = (p + 1) % nprocs;
            m.step(p);
            ++steps;
            if (det.hasRace())
                break; // online early exit: first race decides
        }
        ++report.executions;
        if (det.hasRace()) {
            report.obeysDrf0 = false;
            // Rebuild the full-trace witness the offline checker would
            // have reported: replay this schedule to completion.
            IdealizedMachine w(program);
            Rng replay = sched_rng;
            int wsteps = 0;
            while (!w.allHalted() && wsteps < max_steps_per_execution) {
                ProcId p = static_cast<ProcId>(replay.below(nprocs));
                while (w.halted(p))
                    p = (p + 1) % nprocs;
                w.step(p);
                ++wsteps;
            }
            report.witness = w.trace();
            report.witnessReport = checkTrace(report.witness);
        }
    }
    return report;
}

std::string
Drf0TraceReport::toString(const ExecutionTrace &trace) const
{
    std::ostringstream oss;
    if (raceFree) {
        oss << "race-free (DRF0)";
        return oss.str();
    }
    oss << races.size() << " race(s):\n";
    for (const auto &r : races) {
        oss << "  " << trace.at(r.first).toString() << "  ||  "
            << trace.at(r.second).toString() << '\n';
    }
    return oss.str();
}

} // namespace wo
