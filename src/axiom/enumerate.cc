#include "axiom/enumerate.hh"

#include <algorithm>

#include "axiom/relation.hh"

namespace wo {
namespace axiom {

namespace {

/** Max per-processor path combinations. */
constexpr std::uint64_t kMaxCombos = 200000;

/** One full enumeration run (combo -> rf -> co -> visit). */
struct CandEnum
{
    const MultiProgram &program;
    const AxiomLimits &limits;
    EnumStats &stats;
    const std::function<bool(const Candidate &)> &visit;

    bool capped = false;
    bool stopped = false;

    Candidate cand;
    std::vector<int> readIds;
    std::vector<std::vector<int>> rfOptions; ///< aligned with readIds
    std::vector<Addr> writeAddrs;
    std::map<Addr, std::vector<int>> writesByAddr;

    CandEnum(const MultiProgram &p, const AxiomLimits &l, EnumStats &s,
             const std::function<bool(const Candidate &)> &v)
        : program(p), limits(l), stats(s), visit(v)
    {}

    bool run()
    {
        PathSet ps = enumeratePaths(program);
        stats.pathsEmitted = ps.pathsEmitted;
        stats.stutterPruned = ps.stutterPruned;
        stats.valueRounds = ps.valueRounds;

        int n = program.numProcs();
        for (ProcId p = 0; p < n; ++p) {
            if (ps.perProc[p].empty())
                return ps.complete; // no halting path -> no candidates
        }

        // Odometer over per-processor path choices.
        std::vector<std::size_t> choice(n, 0);
        for (;;) {
            ++stats.combos;
            if (stats.combos > kMaxCombos) {
                capped = true;
                break;
            }
            buildCombo(ps, choice);
            if (stopped || capped)
                break;
            int p = n - 1;
            for (; p >= 0; --p) {
                if (++choice[p] < ps.perProc[p].size())
                    break;
                choice[p] = 0;
            }
            if (p < 0)
                break;
        }
        return ps.complete && !capped;
    }

    void buildCombo(const PathSet &ps, const std::vector<std::size_t> &choice)
    {
        int n = program.numProcs();
        cand.events.clear();
        cand.byProc.assign(n, {});
        cand.finalRegs.assign(n, {});
        readIds.clear();
        rfOptions.clear();
        writesByAddr.clear();
        writeAddrs.clear();
        cand.co.clear();

        for (ProcId p = 0; p < n; ++p) {
            const LocalPath &path = ps.perProc[p][choice[p]];
            cand.finalRegs[p] = path.finalRegs;
            for (const AxEvent &ev : path.events) {
                AxEvent e = ev;
                e.id = static_cast<int>(cand.events.size());
                cand.byProc[p].push_back(e.id);
                cand.events.push_back(e);
                if (e.writes())
                    writesByAddr[e.addr].push_back(e.id);
            }
        }
        cand.rf.assign(cand.events.size(), kNotARead);
        for (const auto &[a, w] : writesByAddr)
            writeAddrs.push_back(a);

        // rf source options per read. In pruned mode: value-matching
        // writes only, and per-location program order is respected up
        // front — a read may take the initial value only with no
        // po-earlier own write to the location, and its own writes
        // only from the po-latest earlier one.
        for (const AxEvent &e : cand.events) {
            if (!e.reads())
                continue;
            std::vector<int> opts;
            int last_own = -1;
            for (int id : cand.byProc[e.proc]) {
                if (id >= e.id)
                    break;
                const AxEvent &w = cand.events[id];
                if (w.writes() && w.addr == e.addr)
                    last_own = id;
            }
            if (!limits.pruning) {
                opts.push_back(kInitialWrite);
                auto it = writesByAddr.find(e.addr);
                if (it != writesByAddr.end()) {
                    for (int id : it->second) {
                        if (id != e.id)
                            opts.push_back(id);
                    }
                }
            } else {
                if (program.initialValue(e.addr) == e.valueRead &&
                    last_own == -1) {
                    opts.push_back(kInitialWrite);
                }
                auto it = writesByAddr.find(e.addr);
                if (it != writesByAddr.end()) {
                    for (int id : it->second) {
                        if (id == e.id)
                            continue;
                        const AxEvent &w = cand.events[id];
                        if (w.valueWritten != e.valueRead)
                            continue;
                        if (w.proc == e.proc && id != last_own)
                            continue;
                        opts.push_back(id);
                    }
                }
                if (opts.empty()) {
                    ++stats.combosPrefiltered;
                    return;
                }
            }
            readIds.push_back(e.id);
            rfOptions.push_back(std::move(opts));
        }

        rfStep(0);
    }

    void rfStep(std::size_t i)
    {
        if (stopped || capped)
            return;
        if (i == readIds.size()) {
            coAddr(0);
            return;
        }
        for (int src : rfOptions[i]) {
            ++stats.rfChoices;
            cand.rf[readIds[i]] = src;
            rfStep(i + 1);
            if (stopped || capped)
                return;
        }
        cand.rf[readIds[i]] = kNotARead;
    }

    void coAddr(std::size_t ai)
    {
        if (stopped || capped)
            return;
        if (ai == writeAddrs.size()) {
            finishCandidate();
            return;
        }
        Addr a = writeAddrs[ai];
        const std::vector<int> &writes = writesByAddr[a];
        std::vector<char> used(writes.size(), 0);
        cand.co[a].clear();
        coPlace(ai, a, writes, used, 0);
        cand.co[a].clear();
    }

    void coPlace(std::size_t ai, Addr a, const std::vector<int> &writes,
                 std::vector<char> &used, std::size_t placed)
    {
        if (stopped || capped)
            return;
        std::vector<int> &chain = cand.co[a];
        if (placed == writes.size()) {
            if (limits.pruning && !coherentAt(a)) {
                ++stats.coherencePruned;
                return;
            }
            coAddr(ai + 1);
            return;
        }
        int tail = chain.empty() ? kInitialWrite : chain.back();

        // RMW atomicity: an rmw must immediately follow its rf source
        // in co, so an unplaced rmw sourced at the current tail is the
        // only legal next element.
        int mandatory = -1;
        if (limits.pruning) {
            for (std::size_t i = 0; i < writes.size(); ++i) {
                if (!used[i] && cand.events[writes[i]].isRmw() &&
                    cand.rf[writes[i]] == tail) {
                    mandatory = static_cast<int>(i);
                    break;
                }
            }
        }
        for (std::size_t i = 0; i < writes.size(); ++i) {
            if (used[i])
                continue;
            int w = writes[i];
            if (limits.pruning) {
                if (mandatory >= 0 && static_cast<int>(i) != mandatory)
                    continue;
                if (cand.events[w].isRmw() && cand.rf[w] != tail)
                    continue;
                // Same-processor writes enter co in program order
                // (event ids within a processor ascend in po).
                bool blocked = false;
                for (std::size_t j = 0; j < writes.size(); ++j) {
                    if (!used[j] && writes[j] < w &&
                        cand.events[writes[j]].proc ==
                            cand.events[w].proc) {
                        blocked = true;
                        break;
                    }
                }
                if (blocked)
                    continue;
            }
            ++stats.coPlacements;
            used[i] = 1;
            chain.push_back(w);
            coPlace(ai, a, writes, used, placed + 1);
            chain.pop_back();
            used[i] = 0;
            if (stopped || capped)
                return;
        }
    }

    /** acyclic(poloc | rf | co | fr) restricted to address @p a — the
     * SC-per-location generator invariant (every shipped model
     * contains these relations, so the prune loses nothing). */
    bool coherentAt(Addr a)
    {
        RelGraph g(static_cast<int>(cand.events.size()));
        for (const auto &proc : cand.byProc) {
            int last = -1;
            for (int id : proc) {
                const AxEvent &e = cand.events[id];
                if (e.fence || e.addr != a)
                    continue;
                if (last >= 0)
                    g.addEdge(last, id, RelKind::PoLoc);
                last = id;
            }
        }
        const std::vector<int> &chain = cand.co[a];
        for (std::size_t i = 1; i < chain.size(); ++i)
            g.addEdge(chain[i - 1], chain[i], RelKind::Co);
        for (const AxEvent &e : cand.events) {
            if (!e.reads() || e.addr != a)
                continue;
            if (cand.rf[e.id] >= 0)
                g.addEdge(cand.rf[e.id], e.id, RelKind::Rf);
            int succ = -1;
            if (cand.rf[e.id] == kInitialWrite) {
                if (!chain.empty())
                    succ = chain.front();
            } else {
                auto pos = std::find(chain.begin(), chain.end(),
                                     cand.rf[e.id]);
                if (pos != chain.end() && pos + 1 != chain.end())
                    succ = *(pos + 1);
            }
            if (succ >= 0 && succ != e.id)
                g.addEdge(e.id, succ, RelKind::Fr);
        }
        return g.acyclic();
    }

    void finishCandidate()
    {
        ++stats.candidatesConsidered;
        if (stats.candidatesConsidered > limits.maxCandidates) {
            capped = true;
            return;
        }
        if (!limits.pruning) {
            // Naive mode assigned rf value-blind: discard mismatches
            // here. Everything else (coherence, atomicity, po sanity)
            // is expressible as relation cycles and left to the model
            // checks, keeping the baseline honestly naive.
            for (int r : readIds) {
                const AxEvent &e = cand.events[r];
                Word got = cand.rf[r] == kInitialWrite
                               ? program.initialValue(e.addr)
                               : cand.events[cand.rf[r]].valueWritten;
                if (got != e.valueRead)
                    return;
            }
        }
        ++stats.candidates;
        if (!visit(cand))
            stopped = true;
    }
};

} // namespace

bool
enumerateCandidates(const MultiProgram &program, const AxiomLimits &limits,
                    EnumStats &stats,
                    const std::function<bool(const Candidate &)> &visit)
{
    CandEnum e(program, limits, stats, visit);
    return e.run();
}

AxiomResult
enumerateAllowed(const MultiProgram &program,
                 const std::vector<const AxiomaticModel *> &models,
                 const ModelContext &ctx, const AxiomLimits &limits)
{
    AxiomResult res;
    for (const AxiomaticModel *m : models)
        res.allowed[m->name()];

    std::set<RunResult> fully; // allowed by every model: skip checks
    res.complete = enumerateCandidates(
        program, limits, res.stats, [&](const Candidate &c) {
            RunResult o = c.outcome(program);
            if (fully.count(o)) {
                ++res.stats.memoHits;
                return true;
            }
            bool all = true;
            for (const AxiomaticModel *m : models) {
                std::set<RunResult> &set = res.allowed[m->name()];
                if (set.count(o))
                    continue;
                ++res.stats.modelChecks;
                if (m->check(c, ctx).allowed)
                    set.insert(o);
                else
                    all = false;
            }
            if (all && !models.empty())
                fully.insert(o);
            return true;
        });
    return res;
}

Explanation
explainOutcome(const MultiProgram &program,
               const std::vector<const AxiomaticModel *> &models,
               const ModelContext &ctx,
               const std::function<bool(const RunResult &)> &match,
               const AxiomLimits &limits, const AddrNamer &name)
{
    Explanation ex;
    for (const AxiomaticModel *m : models) {
        ModelExplanation me;
        me.model = m->name();
        ex.models.push_back(std::move(me));
    }

    EnumStats stats;
    bool full = enumerateCandidates(
        program, limits, stats, [&](const Candidate &c) {
            RunResult o = c.outcome(program);
            if (!match(o))
                return true;
            if (!ex.matched) {
                ex.matched = true;
                ex.witness = c;
            }
            bool all_allowed = true;
            for (std::size_t i = 0; i < models.size(); ++i) {
                ModelExplanation &me = ex.models[i];
                if (me.allowed)
                    continue;
                ModelVerdict v =
                    models[i]->check(c, ctx, me.cycle.empty(), name);
                if (v.allowed) {
                    me.allowed = true;
                    me.witness = c;
                    me.cycle.clear();
                } else if (me.cycle.empty()) {
                    me.cycle = v.cycle;
                }
                all_allowed = all_allowed && me.allowed;
            }
            return !all_allowed; // everything resolved: stop early
        });
    // An early stop (all models resolved) is not a truncation.
    bool resolved = ex.matched;
    for (const ModelExplanation &me : ex.models)
        resolved = resolved && me.allowed;
    ex.complete = full || resolved;
    return ex;
}

} // namespace axiom
} // namespace wo
