/**
 * @file
 * Axiomatic memory models.
 *
 * A model is an acyclicity constraint over a union of relations of a
 * candidate execution (see axiom/relation.hh), possibly chosen by the
 * program's DRF0 status. Two relation unions (Axiom::Sc and Axiom::Wb)
 * cover the three models that ship:
 *
 *  - "sc": acyclic(po ∪ rf ∪ co ∪ fr). Lamport sequential consistency
 *    — there is a single interleaving of all events consistent with
 *    program order that explains every read.
 *
 *  - "wb": acyclic(poloc ∪ fence ∪ rf ∪ co ∪ fr). The hardware
 *    envelope of the repo's Relaxed machines: per-location coherence,
 *    RMW atomicity (enforced by construction of co), and the
 *    RP3-style fence are kept, while cross-location program order is
 *    dropped entirely — the write-buffered bus reorders W→R (Figure 1
 *    case 1) and the banked uncached memory reorders W→W (case 2).
 *
 *  - "drf0sc": the paper's Definition-2 contract as an axiom. When the
 *    program is DRF0 (ModelContext::programDrf0, computed by the PR-3
 *    detector), candidates must satisfy "sc"; otherwise the hardware
 *    owes nothing beyond its envelope and candidates are checked
 *    against "wb".
 *
 * Every shipped model contains poloc ∪ rf ∪ co ∪ fr, i.e. all respect
 * per-location coherence — the candidate enumerator exploits this as a
 * generator invariant and never emits coherence-violating candidates.
 */

#ifndef WO_AXIOM_MODEL_HH
#define WO_AXIOM_MODEL_HH

#include <string>
#include <utility>
#include <vector>

#include "axiom/event.hh"
#include "axiom/relation.hh"
#include "consistency/policy.hh"

namespace wo {
namespace axiom {

/** Program-level facts a conditional model may depend on. */
struct ModelContext
{
    /** DRF0 verdict for the whole program (see
     * core/drf0_checker.hh); drf0sc promises SC only when true. */
    bool programDrf0 = false;
};

/** Outcome of checking one candidate against one model. */
struct ModelVerdict
{
    bool allowed = true;

    /** Rendered shortest cycle when rejected and a witness was
     * requested (empty otherwise). */
    std::string cycle;
};

/** The relation unions the shipped models require to be acyclic. */
enum class Axiom
{
    Sc, ///< po | rf | co | fr
    Wb, ///< poloc | fence | rf | co | fr
};

/** One axiomatic memory model: the axiom it imposes on candidates of a
 * DRF0 program and the one it imposes on a racy program's. */
class AxiomaticModel
{
  public:
    AxiomaticModel(std::string name, std::string summary, Axiom racy,
                   Axiom drf0)
        : name_(std::move(name)), summary_(std::move(summary)),
          racy_(racy), drf0_(drf0)
    {}

    const std::string &name() const { return name_; }
    const std::string &summary() const { return summary_; }

    /** The axiom deciding candidates of a program with facts @p ctx. */
    Axiom axiom(const ModelContext &ctx) const
    {
        return ctx.programDrf0 ? drf0_ : racy_;
    }

  private:
    std::string name_;
    std::string summary_;
    Axiom racy_;
    Axiom drf0_;
};

/**
 * Checks candidates against models with one reused relation graph, and
 * decides each axiom at most once per candidate: models that impose
 * the same axiom (drf0sc and sc on a DRF0 program) share the verdict.
 * One checker serves one enumeration on one thread.
 */
class ModelChecker
{
  public:
    /** Forget the cached verdicts: the next check is of a new
     * candidate. */
    void newCandidate() { verdicts_[0] = verdicts_[1] = kUnknown; }

    /** Accept or reject @p c (the candidate last announced by
     * newCandidate()) under @p model; when @p need_cycle, a rejection
     * carries the witness cycle rendered with @p name. */
    ModelVerdict check(const Candidate &c, const AxiomaticModel &model,
                       const ModelContext &ctx, bool need_cycle = false,
                       const AddrNamer &name = defaultAddrName);

  private:
    static constexpr signed char kUnknown = -1;

    RelGraph graph_;
    signed char verdicts_[2] = {kUnknown, kUnknown}; ///< by Axiom
};

/** The built-in models, in registry order: sc, wb, drf0sc. */
const std::vector<const AxiomaticModel *> &axiomModels();

/** Lookup by name; nullptr when unknown. */
const AxiomaticModel *findAxiomModel(const std::string &name);

/**
 * The model whose allowed set bounds what the simulator may show under
 * @p policy: Sc -> "sc"; the weak-ordering policies (Def1, Def2*) ->
 * "drf0sc"; Relaxed -> "wb".
 */
const AxiomaticModel *modelForPolicy(PolicyKind policy);

} // namespace axiom
} // namespace wo

#endif // WO_AXIOM_MODEL_HH
