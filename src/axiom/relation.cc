#include "axiom/relation.hh"

#include <algorithm>
#include <deque>
#include <sstream>

namespace wo {
namespace axiom {

std::string
toString(RelKind k)
{
    switch (k) {
      case RelKind::Po: return "po";
      case RelKind::PoLoc: return "poloc";
      case RelKind::Fence: return "fence";
      case RelKind::Rf: return "rf";
      case RelKind::Co: return "co";
      case RelKind::Fr: return "fr";
    }
    return "?";
}

void
RelGraph::reset(int num_events)
{
    if (static_cast<int>(out_.size()) < num_events)
        out_.resize(num_events);
    for (int i = 0; i < num_events; ++i)
        out_[i].clear();
    numEvents_ = num_events;
}

bool
RelGraph::acyclic() const
{
    int n = numEvents();
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::vector<char> &color = color_;
    std::vector<std::pair<int, std::size_t>> &stack = stack_;
    color.assign(n, 0);
    stack.clear();
    for (int root = 0; root < n; ++root) {
        if (color[root] != 0)
            continue;
        color[root] = 1;
        stack.emplace_back(root, 0);
        while (!stack.empty()) {
            auto &[u, i] = stack.back();
            if (i < out_[u].size()) {
                int v = out_[u][i++].to;
                if (color[v] == 1)
                    return false;
                if (color[v] == 0) {
                    color[v] = 1;
                    stack.emplace_back(v, 0);
                }
            } else {
                color[u] = 2;
                stack.pop_back();
            }
        }
    }
    return true;
}

std::vector<RelEdge>
RelGraph::findCycle() const
{
    // Shortest cycle through any edge (u -> v): BFS the shortest path
    // v ->* u, then close it with the edge. Graphs here have a few
    // dozen events, and this only runs to render a witness.
    int n = numEvents();
    std::vector<RelEdge> best;
    for (int u = 0; u < n; ++u) {
        for (const RelEdge &e : out_[u]) {
            std::vector<int> parent(n, -1);
            std::vector<RelEdge> via(n);
            std::deque<int> q;
            parent[e.to] = e.to;
            q.push_back(e.to);
            while (!q.empty() && parent[u] == -1) {
                int x = q.front();
                q.pop_front();
                for (const RelEdge &f : out_[x]) {
                    if (parent[f.to] == -1) {
                        parent[f.to] = x;
                        via[f.to] = f;
                        q.push_back(f.to);
                    }
                }
            }
            if (parent[u] == -1)
                continue;
            std::vector<RelEdge> cycle;
            for (int x = u; x != e.to; x = parent[x])
                cycle.push_back(via[x]);
            std::reverse(cycle.begin(), cycle.end());
            cycle.insert(cycle.begin(), e);
            if (best.empty() || cycle.size() < best.size())
                best = std::move(cycle);
        }
    }
    return best;
}

void
addPo(const Candidate &c, RelGraph &g)
{
    for (const auto &proc : c.byProc) {
        for (std::size_t i = 1; i < proc.size(); ++i)
            g.addEdge(proc[i - 1], proc[i], RelKind::Po);
    }
}

void
addPoLoc(const Candidate &c, RelGraph &g)
{
    // Each access's po-predecessor at its location, found by scanning
    // back: paths hold a few dozen events at most.
    for (const auto &proc : c.byProc) {
        for (std::size_t i = 1; i < proc.size(); ++i) {
            const AxEvent &e = c.events[proc[i]];
            if (e.fence)
                continue;
            for (std::size_t j = i; j-- > 0;) {
                const AxEvent &prev = c.events[proc[j]];
                if (!prev.fence && prev.addr == e.addr) {
                    g.addEdge(proc[j], proc[i], RelKind::PoLoc);
                    break;
                }
            }
        }
    }
}

void
addFenceOrder(const Candidate &c, RelGraph &g)
{
    for (const auto &proc : c.byProc) {
        for (std::size_t f = 0; f < proc.size(); ++f) {
            if (!c.events[proc[f]].fence)
                continue;
            for (std::size_t i = 0; i < f; ++i)
                g.addEdge(proc[i], proc[f], RelKind::Fence);
            for (std::size_t i = f + 1; i < proc.size(); ++i)
                g.addEdge(proc[f], proc[i], RelKind::Fence);
        }
    }
}

void
addRf(const Candidate &c, RelGraph &g)
{
    for (const AxEvent &e : c.events) {
        if (e.reads() && c.rf[e.id] >= 0)
            g.addEdge(c.rf[e.id], e.id, RelKind::Rf);
    }
}

void
addCo(const Candidate &c, RelGraph &g)
{
    for (const auto &[a, chain] : c.co) {
        for (std::size_t i = 1; i < chain.size(); ++i)
            g.addEdge(chain[i - 1], chain[i], RelKind::Co);
    }
}

void
addFr(const Candidate &c, RelGraph &g)
{
    for (const AxEvent &e : c.events) {
        if (!e.reads())
            continue;
        auto it = c.co.find(e.addr);
        if (it == c.co.end() || it->second.empty())
            continue;
        const std::vector<int> &chain = it->second;
        int succ = -1;
        if (c.rf[e.id] == kInitialWrite) {
            succ = chain.front();
        } else {
            auto pos =
                std::find(chain.begin(), chain.end(), c.rf[e.id]);
            if (pos != chain.end() && pos + 1 != chain.end())
                succ = *(pos + 1);
        }
        if (succ >= 0 && succ != e.id)
            g.addEdge(e.id, succ, RelKind::Fr);
    }
}

std::string
renderCycle(const Candidate &c, const std::vector<RelEdge> &cycle,
            const AddrNamer &name)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        const RelEdge &e = cycle[i];
        os << "e" << e.from << " " << c.events[e.from].toString(name)
           << " --" << toString(e.kind) << "--> ";
    }
    if (!cycle.empty())
        os << "e" << cycle.front().from << " "
           << c.events[cycle.front().from].toString(name);
    return os.str();
}

} // namespace axiom
} // namespace wo
