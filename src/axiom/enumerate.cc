#include "axiom/enumerate.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "axiom/relation.hh"

namespace wo {
namespace axiom {

namespace {

/** Max per-processor path combinations. */
constexpr std::uint64_t kMaxCombos = 200000;

/** Rows of bit sets over the (addr, value) pairs a program's paths
 * write or read, one bit per interned pair. */
using PairBits = std::vector<std::uint64_t>;

/**
 * Call @p write(addr, value) for each write of @p path, and
 * @p need(addr, value) for each read the path cannot source by itself:
 * buildCombo's rule with only the path's own events in view. A read is
 * self-sourced when it takes the initial value with no po-earlier own
 * write to its address, or the value of its own po-latest earlier
 * write; any other source must be another processor's write.
 */
template <class Write, class Need>
void
scanPath(const MultiProgram &program, const LocalPath &path, Write write,
         Need need)
{
    for (std::size_t i = 0; i < path.events.size(); ++i) {
        const AxEvent &e = path.events[i];
        if (e.reads()) {
            const AxEvent *last_own = nullptr;
            for (std::size_t j = 0; j < i; ++j) {
                const AxEvent &w = path.events[j];
                if (w.writes() && w.addr == e.addr)
                    last_own = &w;
            }
            bool self = last_own
                            ? last_own->valueWritten == e.valueRead
                            : program.initialValue(e.addr) == e.valueRead;
            if (!self)
                need(e.addr, e.valueRead);
        }
        if (e.writes())
            write(e.addr, e.valueWritten);
    }
}

/** One full enumeration run (combo -> rf -> co -> visit). */
struct CandEnum
{
    const MultiProgram &program;
    const AxiomLimits &limits;
    EnumStats &stats;
    const std::function<bool(const Candidate &)> &visit;

    bool capped = false;
    bool stopped = false;

    PathSet ps;
    std::vector<std::size_t> choice; ///< path index per processor

    // Prefilter index (pruned mode), one row of `words` 64-bit words
    // per (processor, path): the pairs the path writes (offers) and
    // the pairs its unsourced reads need from other processors.
    std::size_t words = 0;
    std::vector<std::size_t> pathRow; ///< first row of each processor
    PairBits offers, needs;
    /** Row p: the union of offers of every path of processors >= p. */
    PairBits laterOffers;
    /** Combinations below a choice at processor p - 1, saturated at
     * kMaxCombos + 1. */
    std::vector<std::uint64_t> subtree;
    PairBits supply; ///< sourceable()'s: what other processors offer

    Candidate cand;
    std::vector<int> readIds;
    std::vector<int> rfOptions;         ///< flat, sliced by rfBegin
    std::vector<std::size_t> rfBegin;   ///< readIds.size() + 1 bounds
    std::vector<Addr> writeAddrs;       ///< ascending
    std::vector<int> writeIds;          ///< grouped by writeAddrs
    std::vector<std::size_t> addrBegin; ///< writeAddrs.size() + 1 bounds
    std::vector<std::vector<int> *> chains; ///< cand.co, by writeAddrs
    std::vector<char> used;             ///< co placement, by writeIds
    RelGraph graph;                     ///< coherentAt's

    CandEnum(const MultiProgram &p, const AxiomLimits &l, EnumStats &s,
             const std::function<bool(const Candidate &)> &v)
        : program(p), limits(l), stats(s), visit(v)
    {}

    bool run()
    {
        ps = enumeratePaths(program);
        stats.pathsEmitted = ps.pathsEmitted;
        stats.stutterPruned = ps.stutterPruned;
        stats.valueRounds = ps.valueRounds;

        int n = program.numProcs();
        for (ProcId p = 0; p < n; ++p) {
            if (ps.perProc[p].empty())
                return ps.complete; // no halting path -> no candidates
        }
        if (limits.pruning)
            indexPaths();
        choice.assign(n, 0);
        comboLevel(0);
        return ps.complete && !capped;
    }

    /** Build the prefilter index over every processor's paths. */
    void indexPaths()
    {
        int n = program.numProcs();
        std::map<std::pair<Addr, Word>, std::size_t> bit;
        auto intern = [&](Addr a, Word v) {
            bit.emplace(std::make_pair(a, v), bit.size());
        };
        for (const auto &paths : ps.perProc) {
            for (const LocalPath &path : paths)
                scanPath(program, path, intern, intern);
        }
        words = (bit.size() + 63) / 64;

        pathRow.assign(n + 1, 0);
        for (ProcId p = 0; p < n; ++p)
            pathRow[p + 1] = pathRow[p] + ps.perProc[p].size();
        offers.assign(pathRow[n] * words, 0);
        needs.assign(pathRow[n] * words, 0);
        for (ProcId p = 0; p < n; ++p) {
            for (std::size_t i = 0; i < ps.perProc[p].size(); ++i) {
                std::size_t at = (pathRow[p] + i) * words;
                scanPath(
                    program, ps.perProc[p][i],
                    [&](Addr a, Word v) {
                        setBit(offers.data() + at, bit.at({a, v}));
                    },
                    [&](Addr a, Word v) {
                        setBit(needs.data() + at, bit.at({a, v}));
                    });
            }
        }

        laterOffers.assign((n + 1) * words, 0);
        subtree.assign(n + 1, 1);
        for (ProcId p = n - 1; p >= 0; --p) {
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t u = laterOffers[(p + 1) * words + w];
                for (std::size_t r = pathRow[p]; r < pathRow[p + 1]; ++r)
                    u |= offers[r * words + w];
                laterOffers[p * words + w] = u;
            }
            std::uint64_t size = ps.perProc[p].size();
            subtree[p] = subtree[p + 1] > (kMaxCombos + 1) / size
                             ? kMaxCombos + 1
                             : subtree[p + 1] * size;
        }
        supply.assign(words, 0);
    }

    static void setBit(std::uint64_t *row, std::size_t b)
    {
        row[b / 64] |= std::uint64_t{1} << (b % 64);
    }

    /** False when, with processors 0..@p k on their chosen paths, some
     * chosen path needs a pair that no other chosen path and no path
     * of a later processor writes: every combination below is then
     * unsourceable. At @p k = n - 1 this is exactly buildCombo's
     * per-read rule over the whole combination. */
    bool sourceable(int k)
    {
        for (int j = 0; j <= k; ++j) {
            const std::uint64_t *need = needs.data() + row(j) * words;
            for (std::size_t w = 0; w < words; ++w)
                supply[w] = laterOffers[(k + 1) * words + w];
            for (int i = 0; i <= k; ++i) {
                if (i == j)
                    continue;
                const std::uint64_t *o = offers.data() + row(i) * words;
                for (std::size_t w = 0; w < words; ++w)
                    supply[w] |= o[w];
            }
            for (std::size_t w = 0; w < words; ++w) {
                if (need[w] & ~supply[w])
                    return false;
            }
        }
        return true;
    }

    std::size_t row(int p) const { return pathRow[p] + choice[p]; }

    /** Walk the combinations extending choice[0..p) in odometer order
     * (the last processor's path varies fastest). A prefix the
     * prefilter rejects is counted, combination by combination, as
     * built and prefiltered, without building any of them. */
    void comboLevel(int p)
    {
        int n = program.numProcs();
        for (std::size_t i = 0; i < ps.perProc[p].size(); ++i) {
            choice[p] = i;
            if (limits.pruning && !sourceable(p))
                skipCombos(subtree[p + 1]);
            else if (p + 1 < n)
                comboLevel(p + 1);
            else
                visitCombo();
            if (stopped || capped)
                return;
        }
    }

    /** Count @p count unsourceable combinations, stopping at the cap
     * where the one-by-one count would. */
    void skipCombos(std::uint64_t count)
    {
        if (stats.combos + count > kMaxCombos) {
            stats.combosPrefiltered += kMaxCombos - stats.combos;
            stats.combos = kMaxCombos + 1;
            capped = true;
            return;
        }
        stats.combos += count;
        stats.combosPrefiltered += count;
    }

    void visitCombo()
    {
        ++stats.combos;
        if (stats.combos > kMaxCombos) {
            capped = true;
            return;
        }
        buildCombo();
    }

    void buildCombo()
    {
        int n = program.numProcs();
        cand.events.clear();
        cand.byProc.resize(n);
        cand.finalRegs.resize(n);
        readIds.clear();
        rfOptions.clear();
        rfBegin.assign(1, 0);
        writeAddrs.clear();

        for (ProcId p = 0; p < n; ++p) {
            const LocalPath &path = ps.perProc[p][choice[p]];
            cand.finalRegs[p] = path.finalRegs;
            cand.byProc[p].clear();
            for (const AxEvent &ev : path.events) {
                AxEvent e = ev;
                e.id = static_cast<int>(cand.events.size());
                cand.byProc[p].push_back(e.id);
                cand.events.push_back(e);
                if (e.writes()) {
                    auto at = std::lower_bound(writeAddrs.begin(),
                                               writeAddrs.end(), e.addr);
                    if (at == writeAddrs.end() || *at != e.addr)
                        writeAddrs.insert(at, e.addr);
                }
            }
        }
        cand.rf.assign(cand.events.size(), kNotARead);

        // Writes grouped by address (ascending), each group in id order.
        writeIds.clear();
        addrBegin.assign(1, 0);
        for (Addr a : writeAddrs) {
            for (const AxEvent &e : cand.events) {
                if (e.writes() && e.addr == a)
                    writeIds.push_back(e.id);
            }
            addrBegin.push_back(writeIds.size());
        }
        used.assign(writeIds.size(), 0);

        // The co map holds exactly this combination's write addresses,
        // each chain empty between combinations.
        bool same = cand.co.size() == writeAddrs.size();
        if (same) {
            std::size_t ai = 0;
            for (const auto &[a, chain] : cand.co)
                same = same && a == writeAddrs[ai++];
        }
        if (!same) {
            cand.co.clear();
            for (Addr a : writeAddrs)
                cand.co[a];
        }
        chains.clear();
        for (auto &[a, chain] : cand.co)
            chains.push_back(&chain);

        // rf source options per read. In pruned mode: value-matching
        // writes only, and per-location program order is respected up
        // front — a read may take the initial value only with no
        // po-earlier own write to the location, and its own writes
        // only from the po-latest earlier one.
        for (const AxEvent &e : cand.events) {
            if (!e.reads())
                continue;
            int last_own = -1;
            for (int id : cand.byProc[e.proc]) {
                if (id >= e.id)
                    break;
                const AxEvent &w = cand.events[id];
                if (w.writes() && w.addr == e.addr)
                    last_own = id;
            }
            std::size_t ai = addrIndex(e.addr);
            if (!limits.pruning) {
                rfOptions.push_back(kInitialWrite);
                for (std::size_t k = addrBegin[ai];
                     ai < writeAddrs.size() && k < addrBegin[ai + 1];
                     ++k) {
                    if (writeIds[k] != e.id)
                        rfOptions.push_back(writeIds[k]);
                }
            } else {
                if (program.initialValue(e.addr) == e.valueRead &&
                    last_own == -1) {
                    rfOptions.push_back(kInitialWrite);
                }
                for (std::size_t k = addrBegin[ai];
                     ai < writeAddrs.size() && k < addrBegin[ai + 1];
                     ++k) {
                    int id = writeIds[k];
                    if (id == e.id)
                        continue;
                    const AxEvent &w = cand.events[id];
                    if (w.valueWritten != e.valueRead)
                        continue;
                    if (w.proc == e.proc && id != last_own)
                        continue;
                    rfOptions.push_back(id);
                }
                if (rfOptions.size() == rfBegin.back()) {
                    throw std::logic_error(
                        "axiom prefilter passed an unsourceable read");
                }
            }
            readIds.push_back(e.id);
            rfBegin.push_back(rfOptions.size());
        }

        rfStep(0);
    }

    /** Index of @p a in writeAddrs, or writeAddrs.size() when this
     * combination does not write @p a. */
    std::size_t addrIndex(Addr a) const
    {
        auto at = std::lower_bound(writeAddrs.begin(), writeAddrs.end(), a);
        return at != writeAddrs.end() && *at == a
                   ? static_cast<std::size_t>(at - writeAddrs.begin())
                   : writeAddrs.size();
    }

    void rfStep(std::size_t i)
    {
        if (stopped || capped)
            return;
        if (i == readIds.size()) {
            coAddr(0);
            return;
        }
        for (std::size_t k = rfBegin[i]; k < rfBegin[i + 1]; ++k) {
            ++stats.rfChoices;
            cand.rf[readIds[i]] = rfOptions[k];
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
        chains[ai]->clear();
        coPlace(ai, 0);
        chains[ai]->clear();
    }

    void coPlace(std::size_t ai, std::size_t placed)
    {
        if (stopped || capped)
            return;
        std::vector<int> &chain = *chains[ai];
        std::size_t begin = addrBegin[ai], end = addrBegin[ai + 1];
        if (placed == end - begin) {
            if (limits.pruning && !coherentAt(ai)) {
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
        std::size_t mandatory = end;
        if (limits.pruning) {
            for (std::size_t i = begin; i < end; ++i) {
                if (!used[i] && cand.events[writeIds[i]].isRmw() &&
                    cand.rf[writeIds[i]] == tail) {
                    mandatory = i;
                    break;
                }
            }
        }
        for (std::size_t i = begin; i < end; ++i) {
            if (used[i])
                continue;
            int w = writeIds[i];
            if (limits.pruning) {
                if (mandatory != end && i != mandatory)
                    continue;
                if (cand.events[w].isRmw() && cand.rf[w] != tail)
                    continue;
                // Same-processor writes enter co in program order
                // (event ids within a processor ascend in po).
                bool blocked = false;
                for (std::size_t j = begin; j < end; ++j) {
                    if (!used[j] && writeIds[j] < w &&
                        cand.events[writeIds[j]].proc ==
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
            coPlace(ai, placed + 1);
            chain.pop_back();
            used[i] = 0;
            if (stopped || capped)
                return;
        }
    }

    /** acyclic(poloc | rf | co | fr) restricted to address
     * writeAddrs[@p ai] — the SC-per-location generator invariant
     * (every shipped model contains these relations, so the prune
     * loses nothing). */
    bool coherentAt(std::size_t ai)
    {
        Addr a = writeAddrs[ai];
        graph.reset(static_cast<int>(cand.events.size()));
        for (const auto &proc : cand.byProc) {
            int last = -1;
            for (int id : proc) {
                const AxEvent &e = cand.events[id];
                if (e.fence || e.addr != a)
                    continue;
                if (last >= 0)
                    graph.addEdge(last, id, RelKind::PoLoc);
                last = id;
            }
        }
        const std::vector<int> &chain = *chains[ai];
        for (std::size_t i = 1; i < chain.size(); ++i)
            graph.addEdge(chain[i - 1], chain[i], RelKind::Co);
        for (const AxEvent &e : cand.events) {
            if (!e.reads() || e.addr != a)
                continue;
            if (cand.rf[e.id] >= 0)
                graph.addEdge(cand.rf[e.id], e.id, RelKind::Rf);
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
                graph.addEdge(e.id, succ, RelKind::Fr);
        }
        return graph.acyclic();
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
    // Each model's allowed set, looked up once.
    std::vector<std::set<RunResult> *> sets;
    for (const AxiomaticModel *m : models)
        sets.push_back(&res.allowed[m->name()]);

    std::set<RunResult> fully; // allowed by every model: skip checks
    ModelChecker checker;
    res.complete = enumerateCandidates(
        program, limits, res.stats, [&](const Candidate &c) {
            RunResult o = c.outcome(program);
            if (fully.count(o)) {
                ++res.stats.memoHits;
                return true;
            }
            checker.newCandidate();
            bool all = true;
            for (std::size_t i = 0; i < models.size(); ++i) {
                if (sets[i]->count(o))
                    continue;
                ++res.stats.modelChecks;
                if (checker.check(c, *models[i], ctx).allowed)
                    sets[i]->insert(o);
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
    ModelChecker checker;
    bool full = enumerateCandidates(
        program, limits, stats, [&](const Candidate &c) {
            RunResult o = c.outcome(program);
            if (!match(o))
                return true;
            if (!ex.matched) {
                ex.matched = true;
                ex.witness = c;
            }
            checker.newCandidate();
            bool all_allowed = true;
            for (std::size_t i = 0; i < models.size(); ++i) {
                ModelExplanation &me = ex.models[i];
                if (me.allowed)
                    continue;
                ModelVerdict v = checker.check(c, *models[i], ctx,
                                               me.cycle.empty(), name);
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
