/**
 * @file
 * Typed relation graphs over candidate executions.
 *
 * A memory model in the axiomatic backend is an acyclicity constraint
 * over a union of relations (herd/cat style). This header provides the
 * graph container, the builders for the standard relations — program
 * order (po), per-location program order (poloc), fence ordering, the
 * candidate's rf and co, and the derived from-reads fr = rf^-1 ; co —
 * plus cycle extraction for minimal witnesses: when a model rejects a
 * candidate, the shortest cycle in its relation graph is the
 * explanation shown to the user.
 *
 * The hypothetical initial write is not a node; rf-from-initial adds
 * no edge, and fr-from-initial points the read at the co-first program
 * write of its location.
 *
 * A RelGraph keeps its storage across reset(), so an enumeration that
 * checks thousands of graphs allocates for the first few only. A graph
 * (and so its acyclic() scratch) belongs to one thread at a time.
 */

#ifndef WO_AXIOM_RELATION_HH
#define WO_AXIOM_RELATION_HH

#include <string>
#include <vector>

#include "axiom/event.hh"

namespace wo {
namespace axiom {

/** The relation an edge belongs to (for witness rendering). */
enum class RelKind { Po, PoLoc, Fence, Rf, Co, Fr };

/** Short relation name: "po", "poloc", "fence", "rf", "co", "fr". */
std::string toString(RelKind k);

/** One typed edge between event ids. */
struct RelEdge
{
    int from = 0;
    int to = 0;
    RelKind kind = RelKind::Po;
};

/** A union-of-relations digraph over a candidate's events. */
class RelGraph
{
  public:
    RelGraph() = default;
    explicit RelGraph(int num_events) { reset(num_events); }

    /** Drop every edge and resize to @p num_events nodes, keeping the
     * edge lists' storage for reuse. */
    void reset(int num_events);

    void addEdge(int from, int to, RelKind kind)
    {
        out_[from].push_back(RelEdge{from, to, kind});
    }

    int numEvents() const { return numEvents_; }
    const std::vector<RelEdge> &outEdges(int id) const { return out_[id]; }

    bool acyclic() const;

    /** A shortest cycle (edge list in traversal order), empty when the
     * graph is acyclic. Quadratic in edges — only called on rejection
     * paths that need a witness. */
    std::vector<RelEdge> findCycle() const;

  private:
    /** Edge lists of nodes [0, numEvents_); lists past it are spare
     * storage from a larger earlier graph. */
    std::vector<std::vector<RelEdge>> out_;
    int numEvents_ = 0;

    /** acyclic()'s depth-first search state, kept between calls. */
    mutable std::vector<char> color_;
    mutable std::vector<std::pair<int, std::size_t>> stack_;
};

/** Full program order: consecutive events (fences included) per proc. */
void addPo(const Candidate &c, RelGraph &g);

/** Per-location program order: consecutive same-address accesses per
 * proc (fences excluded — they have no location). */
void addPoLoc(const Candidate &c, RelGraph &g);

/** Fence ordering: every po-earlier event before each fence, the fence
 * before every po-later event (the paper's RP3-style fence performs
 * all prior accesses globally before any later one issues). */
void addFenceOrder(const Candidate &c, RelGraph &g);

/** Reads-from edges (initial-write sources add none). */
void addRf(const Candidate &c, RelGraph &g);

/** Coherence edges: consecutive writes of each per-address chain. */
void addCo(const Candidate &c, RelGraph &g);

/**
 * From-reads: each read precedes the co-successor of its rf source
 * (with the co chain's own edges supplying the rest of rf^-1 ; co
 * transitively). An rmw is its own source's co-successor; no self edge
 * is added.
 */
void addFr(const Candidate &c, RelGraph &g);

/** "e0 P0 W x:=1 --po--> e1 P0 R y=0 --fr--> ... --rf--> e0". */
std::string renderCycle(const Candidate &c,
                        const std::vector<RelEdge> &cycle,
                        const AddrNamer &name = defaultAddrName);

} // namespace axiom
} // namespace wo

#endif // WO_AXIOM_RELATION_HH
