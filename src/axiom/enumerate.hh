/**
 * @file
 * Candidate-execution enumeration and allowed-outcome computation.
 *
 * The enumerator composes per-processor paths (axiom/paths.hh) into
 * candidate executions: for each path combination it assigns every
 * read a source write (rf), then builds a per-address total order on
 * the writes (co), and hands each complete candidate to a visitor.
 * `enumerateAllowed` folds the visitor into per-model allowed-outcome
 * sets; `explainOutcome` searches for a witness candidate of one
 * outcome and reports, per model, either acceptance or the cycle that
 * rejects it.
 *
 * Two generation modes exist. The pruned mode (default) only proposes
 * value-matching rf sources consistent with per-location program
 * order, places co respecting each processor's write order and RMW
 * atomicity, and discards any per-address assignment with a cycle in
 * poloc ∪ rf ∪ co ∪ fr — sound because every shipped model contains
 * those relations (SC-per-location is a generator invariant). The
 * naive mode enumerates value-blind rf sources and unconstrained co
 * permutations, validating only at completion; it exists as a test
 * oracle and must compute identical allowed sets (the differential
 * tests check this).
 */

#ifndef WO_AXIOM_ENUMERATE_HH
#define WO_AXIOM_ENUMERATE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "axiom/event.hh"
#include "axiom/model.hh"
#include "axiom/paths.hh"

namespace wo {
namespace axiom {

/** Caps and mode switches for candidate enumeration. */
struct AxiomLimits
{
    /** Max complete (rf, co) assignments considered. */
    std::uint64_t maxCandidates = 5000000;

    /** False selects the naive baseline mode (test oracle). */
    bool pruning = true;
};

/** Work counters (reported by wo-axiom and the bench harness). */
struct EnumStats
{
    std::uint64_t pathsEmitted = 0;
    std::uint64_t stutterPruned = 0;
    int valueRounds = 0;

    std::uint64_t combos = 0;            ///< path combinations built
    std::uint64_t combosPrefiltered = 0; ///< dropped: unsourceable read
    std::uint64_t rfChoices = 0;         ///< rf source choices explored
    std::uint64_t coPlacements = 0;      ///< co slot choices explored
    std::uint64_t coherencePruned = 0;   ///< per-address cycle prunes
    std::uint64_t candidatesConsidered = 0; ///< complete assignments
    std::uint64_t candidates = 0;        ///< valid candidates visited
    std::uint64_t modelChecks = 0;
    std::uint64_t memoHits = 0;          ///< outcome already fully allowed
};

/** Allowed outcomes per model name. */
struct AxiomResult
{
    std::map<std::string, std::set<RunResult>> allowed;

    /** False when any cap truncated enumeration: allowed sets are then
     * lower bounds and absence proves nothing. */
    bool complete = true;

    EnumStats stats;
};

/**
 * Enumerate every candidate execution of @p program, calling @p visit
 * for each valid one (return false to stop early). Returns false when
 * a cap truncated the enumeration (an early visitor stop does not
 * count as truncation).
 */
bool enumerateCandidates(const MultiProgram &program,
                         const AxiomLimits &limits, EnumStats &stats,
                         const std::function<bool(const Candidate &)> &visit);

/** Compute each model's allowed-outcome set. */
AxiomResult
enumerateAllowed(const MultiProgram &program,
                 const std::vector<const AxiomaticModel *> &models,
                 const ModelContext &ctx, const AxiomLimits &limits = {});

/** Per-model verdict for one explained outcome. */
struct ModelExplanation
{
    std::string model;
    bool allowed = false;

    /** A candidate this model accepts (meaningful when allowed). */
    Candidate witness;

    /** Rejection cycle from a representative candidate (meaningful
     * when no candidate of the outcome was accepted). */
    std::string cycle;
};

/** Result of explaining one outcome. */
struct Explanation
{
    /** Some candidate execution produces the outcome at all. */
    bool matched = false;
    bool complete = true;

    /** First matching candidate (valid when matched). */
    Candidate witness;

    std::vector<ModelExplanation> models;
};

/**
 * Search the candidate space for executions whose outcome satisfies
 * @p match and resolve each model's verdict on that outcome (stops as
 * soon as every model has an accepting witness).
 */
Explanation
explainOutcome(const MultiProgram &program,
               const std::vector<const AxiomaticModel *> &models,
               const ModelContext &ctx,
               const std::function<bool(const RunResult &)> &match,
               const AxiomLimits &limits = {},
               const AddrNamer &name = defaultAddrName);

} // namespace axiom
} // namespace wo

#endif // WO_AXIOM_ENUMERATE_HH
