#include "core/happens_before.hh"

#include <algorithm>
#include <map>
#include <queue>

namespace wo {

HappensBefore::HappensBefore(const ExecutionTrace &trace)
{
    n_ = trace.size();
    words_ = (n_ + 63) / 64;
    reach_.assign(n_, BitRow(words_, 0));

    // The po and so chains, over the resident accesses: per processor
    // in program order (poIndex, ties by id), per sync location in commit
    // order (commitTick, ties by id). Ids ascend in trace order, so a
    // stable sort by the first key gives both orders.
    std::vector<std::vector<int>> byProc(
        static_cast<std::size_t>(trace.numProcs()));
    std::map<Addr, std::vector<int>> syncs;
    for (const Access &a : trace.accesses()) {
        if (a.proc >= 0)
            byProc[static_cast<std::size_t>(a.proc)].push_back(a.id);
        if (a.sync())
            syncs[a.addr].push_back(a.id);
    }

    // Direct po edges: consecutive accesses of each processor. The
    // transitive closure below recovers the full program order.
    for (std::vector<int> &ids : byProc) {
        std::stable_sort(ids.begin(), ids.end(), [&](int x, int y) {
            return trace.at(x).poIndex < trace.at(y).poIndex;
        });
        for (std::size_t k = 1; k < ids.size(); ++k)
            edges_.emplace_back(ids[k - 1], ids[k]);
    }

    // Direct so edges: consecutive synchronization operations per location
    // in commit order, locations ascending.
    for (auto &[addr, ids] : syncs) {
        std::stable_sort(ids.begin(), ids.end(), [&](int x, int y) {
            return trace.at(x).commitTick < trace.at(y).commitTick;
        });
        for (std::size_t k = 1; k < ids.size(); ++k)
            edges_.emplace_back(ids[k - 1], ids[k]);
    }

    // Kahn topological sort over the direct edges.
    std::vector<std::vector<int>> succ(n_);
    std::vector<int> indeg(n_, 0);
    for (const auto &[u, v] : edges_) {
        succ[u].push_back(v);
        ++indeg[v];
    }
    std::vector<int> topo;
    topo.reserve(n_);
    std::queue<int> ready;
    for (int i = 0; i < n_; ++i) {
        if (indeg[i] == 0)
            ready.push(i);
    }
    while (!ready.empty()) {
        int u = ready.front();
        ready.pop();
        topo.push_back(u);
        for (int v : succ[u]) {
            if (--indeg[v] == 0)
                ready.push(v);
        }
    }
    if (static_cast<int>(topo.size()) != n_) {
        // Cyclic: leave every pair on the cycle unordered. Nodes never
        // popped keep empty reach rows; nodes popped get closure over the
        // acyclic part only.
        acyclic_ = false;
    }

    // Closure: process in reverse topological order; reach[u] = union over
    // successors v of ({v} U reach[v]).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        int u = *it;
        for (int v : succ[u]) {
            setBit(reach_[u], v);
            for (int w = 0; w < words_; ++w)
                reach_[u][w] |= reach_[v][w];
        }
    }
}

bool
HappensBefore::ordered(int a, int b) const
{
    if (a < 0 || b < 0 || a >= n_ || b >= n_ || a == b)
        return false;
    return bit(reach_[a], b);
}

} // namespace wo
