#include "core/drf0_checker.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_set>

#include "core/stream_checker.hh"

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

/** FNV-1a over the words of an IdealizedMachine::stateKey(). */
struct StateKeyHash
{
    std::size_t operator()(const std::vector<std::uint64_t> &key) const
    {
        std::uint64_t h = 1469598103934665603ull;
        for (std::uint64_t w : key)
            h = (h ^ w) * 1099511628211ull;
        return static_cast<std::size_t>(h);
    }
};

/** The next instruction of processor @p p, if it accesses memory. */
const Instruction *
pendingAccess(const MultiProgram &program, const IdealizedMachine &m,
              ProcId p)
{
    if (m.halted(p))
        return nullptr;
    const Instruction &insn = program.program(p).at(m.pc(p));
    return insn.isMemOp() ? &insn : nullptr;
}

/** Two processors whose next instructions race: one address, at least
 * one write, not both syncs. Returns false when no pair does. */
bool
pendingRace(const MultiProgram &program, const IdealizedMachine &m,
            ProcId &first, ProcId &second)
{
    const int n = program.numProcs();
    for (ProcId p = 0; p < n; ++p) {
        const Instruction *a = pendingAccess(program, m, p);
        if (!a)
            continue;
        AccessKind ka = a->accessKind();
        for (ProcId q = p + 1; q < n; ++q) {
            const Instruction *b = pendingAccess(program, m, q);
            if (!b || b->addr != a->addr)
                continue;
            AccessKind kb = b->accessKind();
            if ((writesMemory(ka) || writesMemory(kb)) &&
                !(isSync(ka) && isSync(kb))) {
                first = p;
                second = q;
                return true;
            }
        }
    }
    return false;
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
checkProgram(const MultiProgram &program, const EnumLimits &limits)
{
    Drf0ProgramReport report;
    IdealizedMachine m(program);
    std::unordered_set<std::vector<std::uint64_t>, StateKeyHash> visited;
    // One entry per state on the current path: the next processor to try
    // stepping from it. The path lives in the machine's undo stack.
    std::vector<ProcId> path;
    const ProcId n = program.numProcs();
    bool fresh = visited.insert(m.stateKey()).second;
    while (fresh) {
        ++report.states;
        ProcId p, q;
        if (pendingRace(program, m, p, q)) {
            m.step(p);
            m.step(q);
            report.obeysDrf0 = false;
            report.witness = m.trace();
            report.witnessReport = checkTrace(report.witness);
            return report;
        }
        if (report.states >= limits.maxStates) {
            report.bounded = true;
            return report;
        }
        path.push_back(0);
        fresh = false;
        // Step to the next unvisited state, backtracking as needed.
        while (!fresh && !path.empty()) {
            ProcId &next = path.back();
            while (next < n && m.halted(next))
                ++next;
            if (next == n) {
                path.pop_back();
                if (!path.empty())
                    m.unstep();
                continue;
            }
            m.step(next++);
            fresh = visited.insert(m.stateKey()).second;
            if (!fresh)
                m.unstep();
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
