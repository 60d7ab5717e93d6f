#include "axiom/paths.hh"

#include <algorithm>
#include <functional>

namespace wo {
namespace axiom {

namespace {

/** Max events (accesses + fences) along one path. */
constexpr int kMaxEventsPerPath = 48;

/** Max instructions interpreted along one path. */
constexpr int kMaxStepsPerPath = 512;

/** Max complete paths kept per processor. */
constexpr int kMaxPathsPerProc = 512;

/** Hard cap on value-fixpoint rounds (the grounded-depth bound
 * normally stops it much earlier). */
constexpr int kMaxValueRounds = 64;

/** Shared per-round enumeration state for one processor. */
struct ProcEnum
{
    const Program &prog;
    const std::map<Addr, std::set<Word>> &values;

    std::vector<LocalPath> paths;
    std::vector<AxEvent> events;
    std::vector<Word> regs;
    int writesOnPath = 0;
    bool capped = false;
    std::uint64_t stutterPruned = 0;

    /** Values written along ANY explored prefix — dead ends included.
     * A spin that cannot exit until another processor's value arrives
     * (e.g. the barrier's release flag) emits no complete path in
     * early rounds, but its prefix writes must still reach the value
     * fixpoint or the fixpoint deadlocks at zero paths. Spurious
     * values cost nothing: rf assignment later demands a matching
     * write event in the combo, keeping allowed sets exact. */
    std::map<Addr, std::set<Word>> written;

    /** Max writes on any explored prefix (>= any complete path's
     * count), used for the groundedness round bound. */
    int maxWrites = 0;

    /** The (pc, regs) states on the current path, a stack of rows of
     * regs.size() + 1 words, and the event count at each one's visit
     * (stutter pruning). */
    std::vector<Word> onPathKeys;
    std::vector<int> onPathEvents;

    ProcEnum(const Program &pr, int num_regs,
             const std::map<Addr, std::set<Word>> &v)
        : prog(pr), values(v)
    {
        regs.assign(num_regs, 0);
    }

    /** Event count at the current path's visit to (@p pc, regs), or
     * -1 when the path has not been there. */
    int firstVisit(int pc) const
    {
        std::size_t stride = regs.size() + 1;
        for (std::size_t r = 0; r < onPathEvents.size(); ++r) {
            const Word *key = &onPathKeys[r * stride];
            if (key[0] == static_cast<Word>(pc) &&
                std::equal(regs.begin(), regs.end(), key + 1))
                return onPathEvents[r];
        }
        return -1;
    }

    void emit()
    {
        if (static_cast<int>(paths.size()) >= kMaxPathsPerProc) {
            capped = true;
            return;
        }
        LocalPath p;
        p.events = events;
        p.finalRegs = regs;
        p.writes = writesOnPath;
        for (std::size_t i = 0; i < p.events.size(); ++i)
            p.events[i].poIndex = static_cast<int>(i);
        paths.push_back(std::move(p));
    }

    const std::set<Word> &valuesAt(Addr a)
    {
        static const std::set<Word> zero = {0};
        auto it = values.find(a);
        return it == values.end() ? zero : it->second;
    }

    void run(int pc, int steps)
    {
        if (capped)
            return;
        if (pc >= prog.size()) {
            emit();
            return;
        }
        if (steps >= kMaxStepsPerPath ||
            static_cast<int>(events.size()) >= kMaxEventsPerPath) {
            capped = true;
            return;
        }

        // Stutter pruning: revisiting a (pc, regs) state means the loop
        // body re-read unchanged values; unless it contains a
        // register-sourced write (which could deposit new values), the
        // continuation's outcomes are all reachable from the first
        // visit, so this path is redundant.
        int first = firstVisit(pc);
        bool inserted = first < 0;
        if (inserted) {
            onPathKeys.push_back(static_cast<Word>(pc));
            onPathKeys.insert(onPathKeys.end(), regs.begin(), regs.end());
            onPathEvents.push_back(static_cast<int>(events.size()));
        } else {
            bool fresh_writes = false;
            for (int i = first; i < static_cast<int>(events.size()); ++i) {
                if (events[i].regSourcedWrite)
                    fresh_writes = true;
            }
            if (!fresh_writes) {
                ++stutterPruned;
                return;
            }
        }

        const Instruction &insn = prog.at(pc);
        int next_pc = pc + 1;
        switch (insn.op) {
          case Opcode::Load:
          case Opcode::SyncRead: {
            Word old = regs[insn.dst];
            for (Word v : valuesAt(insn.addr)) {
                AxEvent e;
                e.proc = 0;
                e.kind = insn.accessKind();
                e.addr = insn.addr;
                e.valueRead = v;
                events.push_back(e);
                regs[insn.dst] = v;
                run(next_pc, steps + 1);
                events.pop_back();
                if (capped)
                    break;
            }
            regs[insn.dst] = old;
            break;
          }
          case Opcode::Store:
          case Opcode::SyncWrite: {
            AxEvent e;
            e.proc = 0;
            e.kind = insn.accessKind();
            e.addr = insn.addr;
            e.valueWritten = insn.src >= 0 ? regs[insn.src] : insn.imm;
            e.regSourcedWrite = insn.src >= 0;
            written[e.addr].insert(e.valueWritten);
            events.push_back(e);
            ++writesOnPath;
            maxWrites = std::max(maxWrites, writesOnPath);
            run(next_pc, steps + 1);
            --writesOnPath;
            events.pop_back();
            break;
          }
          case Opcode::TestAndSet: {
            Word old = regs[insn.dst];
            for (Word v : valuesAt(insn.addr)) {
                AxEvent e;
                e.proc = 0;
                e.kind = AccessKind::SyncRmw;
                e.addr = insn.addr;
                e.valueRead = v;
                e.valueWritten = insn.imm;
                written[e.addr].insert(e.valueWritten);
                events.push_back(e);
                ++writesOnPath;
                maxWrites = std::max(maxWrites, writesOnPath);
                regs[insn.dst] = v;
                run(next_pc, steps + 1);
                --writesOnPath;
                events.pop_back();
                if (capped)
                    break;
            }
            regs[insn.dst] = old;
            break;
          }
          case Opcode::Movi: {
            Word old = regs[insn.dst];
            regs[insn.dst] = insn.imm;
            run(next_pc, steps + 1);
            regs[insn.dst] = old;
            break;
          }
          case Opcode::Addi: {
            Word old = regs[insn.dst];
            regs[insn.dst] = regs[insn.src] + insn.imm;
            run(next_pc, steps + 1);
            regs[insn.dst] = old;
            break;
          }
          case Opcode::Beq:
            run(regs[insn.src] == insn.imm ? insn.target : next_pc,
                steps + 1);
            break;
          case Opcode::Bne:
            run(regs[insn.src] != insn.imm ? insn.target : next_pc,
                steps + 1);
            break;
          case Opcode::Fence: {
            AxEvent e;
            e.proc = 0;
            e.fence = true;
            events.push_back(e);
            run(next_pc, steps + 1);
            events.pop_back();
            break;
          }
          case Opcode::Nop:
            run(next_pc, steps + 1);
            break;
          case Opcode::Halt:
            emit();
            break;
        }

        if (inserted) {
            onPathKeys.resize(onPathKeys.size() - regs.size() - 1);
            onPathEvents.pop_back();
        }
    }
};

} // namespace

PathSet
enumeratePaths(const MultiProgram &program)
{
    PathSet out;
    int n = program.numProcs();
    out.perProc.resize(n);

    // Value-set fixpoint, seeded with the initial memory contents.
    for (Addr a : program.touchedAddrs())
        out.values[a].insert(program.initialValue(a));

    // Identical program bodies (e.g. symmetric counter workers) yield
    // identical local path sets; enumerate each distinct body once.
    std::vector<int> sameAs(n, -1);
    for (ProcId p = 0; p < n; ++p) {
        for (ProcId q = 0; q < p; ++q) {
            if (program.program(p).code() == program.program(q).code()) {
                sameAs[p] = q;
                break;
            }
        }
    }

    std::vector<int> procMaxWrites(n, 0);
    for (int round = 0;; ++round) {
        out.valueRounds = round + 1;

        std::uint64_t emitted = 0;
        int total_writes = 0;
        bool grew = false;
        out.stutterPruned = 0;
        std::map<Addr, std::set<Word>> next = out.values;

        for (ProcId p = 0; p < n; ++p) {
            if (sameAs[p] >= 0) {
                out.perProc[p] = out.perProc[sameAs[p]];
                procMaxWrites[p] = procMaxWrites[sameAs[p]];
            } else {
                ProcEnum e(program.program(p), program.numRegisters(),
                           out.values);
                e.run(0, 0);
                if (e.capped)
                    out.complete = false;
                out.stutterPruned += e.stutterPruned;
                out.perProc[p] = std::move(e.paths);
                procMaxWrites[p] = e.maxWrites;
                for (const auto &[a, vals] : e.written) {
                    for (Word v : vals) {
                        if (next[a].insert(v).second)
                            grew = true;
                    }
                }
            }
            emitted += out.perProc[p].size();
            total_writes += procMaxWrites[p];
        }
        out.pathsEmitted = emitted;

        if (!grew)
            break;
        out.values = std::move(next);
        if (round + 1 >= kMaxValueRounds) {
            out.complete = false;
            break;
        }
        // Groundedness bound — a clean convergence, not a truncation:
        // any value readable in a real candidate derives from initial
        // values through distinct write events of that candidate, so
        // its fixpoint depth is at most the total write-event bound.
        // Growth beyond that depth is spurious (unsourceable in any
        // combo) and safely abandoned.
        if (round + 1 > total_writes + 1)
            break;
    }

    // Stamp proc ids (cheap; paths were enumerated proc-agnostically).
    for (ProcId p = 0; p < n; ++p) {
        for (LocalPath &path : out.perProc[p]) {
            for (AxEvent &ev : path.events)
                ev.proc = p;
        }
    }
    return out;
}

} // namespace axiom
} // namespace wo
