#include "axiom/model.hh"

namespace wo {
namespace axiom {

namespace {

void
buildGraph(const Candidate &c, Axiom ax, RelGraph &g)
{
    g.reset(static_cast<int>(c.events.size()));
    if (ax == Axiom::Sc) {
        addPo(c, g);
    } else {
        addPoLoc(c, g);
        addFenceOrder(c, g);
    }
    addRf(c, g);
    addCo(c, g);
    addFr(c, g);
}

} // namespace

ModelVerdict
ModelChecker::check(const Candidate &c, const AxiomaticModel &model,
                    const ModelContext &ctx, bool need_cycle,
                    const AddrNamer &name)
{
    Axiom ax = model.axiom(ctx);
    signed char &known = verdicts_[static_cast<int>(ax)];
    ModelVerdict v;
    if (known != kUnknown && (known || !need_cycle)) {
        v.allowed = known;
        return v;
    }
    buildGraph(c, ax, graph_);
    v.allowed = graph_.acyclic();
    known = v.allowed;
    if (!v.allowed && need_cycle)
        v.cycle = renderCycle(c, graph_.findCycle(), name);
    return v;
}

const std::vector<const AxiomaticModel *> &
axiomModels()
{
    static const AxiomaticModel sc(
        "sc", "sequential consistency: acyclic(po | rf | co | fr)",
        Axiom::Sc, Axiom::Sc);
    static const AxiomaticModel wb(
        "wb",
        "relaxed-hardware envelope: acyclic(poloc | fence | rf | co | "
        "fr) — coherence, atomicity and fences only",
        Axiom::Wb, Axiom::Wb);
    static const AxiomaticModel drf0sc(
        "drf0sc",
        "weak ordering w.r.t. DRF0: sc when the program is "
        "data-race-free, wb otherwise",
        Axiom::Wb, Axiom::Sc);
    static const std::vector<const AxiomaticModel *> all = {&sc, &wb,
                                                            &drf0sc};
    return all;
}

const AxiomaticModel *
findAxiomModel(const std::string &name)
{
    for (const AxiomaticModel *m : axiomModels()) {
        if (m->name() == name)
            return m;
    }
    return nullptr;
}

const AxiomaticModel *
modelForPolicy(PolicyKind policy)
{
    switch (policy) {
      case PolicyKind::Sc:
        return findAxiomModel("sc");
      case PolicyKind::Def1:
      case PolicyKind::Def2Drf0:
      case PolicyKind::Def2Drf1:
        return findAxiomModel("drf0sc");
      case PolicyKind::Relaxed:
        return findAxiomModel("wb");
    }
    return findAxiomModel("wb");
}

} // namespace axiom
} // namespace wo
