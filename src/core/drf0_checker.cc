#include "core/drf0_checker.hh"

#include <algorithm>
#include <map>
#include <sstream>

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

/**
 * checkProgram's visited set. Every IdealizedMachine::stateKey() is
 * stored as [length, words...] in an arena of blocks that double in
 * size up to kMaxBlockWords and are never moved, and found through an
 * open-addressing (linear probing) table of arena positions kept at
 * most half full. A state costs its key words plus one, and two to
 * four table slots: no per-state heap block, and no arena copy when
 * the set grows.
 */
class VisitedStates
{
  public:
    /** Add @p m's current state; false when it was already present. */
    bool insert(const IdealizedMachine &m)
    {
        key_.clear();
        m.appendStateKey(key_);
        std::size_t h = hash(key_.data(), key_.size());
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        std::size_t mask = slots_.size() - 1;
        std::size_t i = h & mask;
        for (; slots_[i] != 0; i = (i + 1) & mask) {
            const std::uint64_t *stored = at(slots_[i] - 1);
            if (stored[0] == key_.size() &&
                std::equal(key_.begin(), key_.end(), stored + 1))
                return false;
        }
        slots_[i] = store() + 1;
        ++size_;
        return true;
    }

  private:
    static constexpr std::size_t kMaxBlockWords = std::size_t{1} << 16;
    static constexpr unsigned kPosShift = 32; ///< position = block:offset

    /** FNV-1a over @p n key words, high bits folded down for the
     * power-of-two table. */
    static std::size_t hash(const std::uint64_t *key, std::size_t n)
    {
        std::uint64_t h = 1469598103934665603ull;
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ key[i]) * 1099511628211ull;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }

    const std::uint64_t *at(std::uint64_t pos) const
    {
        return blocks_[pos >> kPosShift].data() +
               (pos & ((std::uint64_t{1} << kPosShift) - 1));
    }

    /** Copy key_ into the arena; returns its position. */
    std::uint64_t store()
    {
        std::size_t need = key_.size() + 1;
        if (blocks_.empty() ||
            blocks_.back().size() + need > blocks_.back().capacity()) {
            std::size_t words =
                blocks_.empty() ? 256
                                : std::min(blocks_.back().capacity() * 2,
                                           kMaxBlockWords);
            blocks_.emplace_back();
            blocks_.back().reserve(std::max(words, need));
        }
        std::vector<std::uint64_t> &b = blocks_.back();
        std::uint64_t pos =
            (static_cast<std::uint64_t>(blocks_.size() - 1) << kPosShift) |
            b.size();
        b.push_back(key_.size());
        b.insert(b.end(), key_.begin(), key_.end());
        return pos;
    }

    void grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(std::max<std::size_t>(16, old.size() * 2), 0);
        std::size_t mask = slots_.size() - 1;
        for (std::uint64_t slot : old) {
            if (slot == 0)
                continue;
            const std::uint64_t *key = at(slot - 1);
            std::size_t i = hash(key + 1, key[0]) & mask;
            while (slots_[i] != 0)
                i = (i + 1) & mask;
            slots_[i] = slot;
        }
    }

    std::vector<std::vector<std::uint64_t>> blocks_;
    std::vector<std::uint64_t> slots_; ///< arena position + 1; 0 = empty
    std::vector<std::uint64_t> key_;   ///< the state being inserted
    std::size_t size_ = 0;
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
    VisitedStates visited;
    // One entry per state on the current path: the next processor to try
    // stepping from it. The path lives in the machine's undo stack.
    std::vector<ProcId> path;
    const ProcId n = program.numProcs();
    bool fresh = visited.insert(m);
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
            fresh = visited.insert(m);
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
