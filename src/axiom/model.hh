/**
 * @file
 * Pluggable axiomatic memory models.
 *
 * A model is an acyclicity constraint over a union of relations of a
 * candidate execution (see axiom/relation.hh). Three models ship:
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
#include <vector>

#include "axiom/event.hh"
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

/** One axiomatic memory model. Implementations are stateless. */
class AxiomaticModel
{
  public:
    virtual ~AxiomaticModel() = default;

    virtual std::string name() const = 0;
    virtual std::string summary() const = 0;

    /** Accept or reject @p c; when @p need_cycle, a rejection carries
     * the witness cycle rendered with @p name. */
    virtual ModelVerdict check(const Candidate &c, const ModelContext &ctx,
                               bool need_cycle = false,
                               const AddrNamer &name =
                                   defaultAddrName) const = 0;
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
