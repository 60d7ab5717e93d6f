/**
 * @file
 * The weak-ordering contract of Definition 2, made executable.
 *
 * Definition 2: hardware is weakly ordered with respect to a
 * synchronization model iff it appears sequentially consistent to all
 * software that obeys the model.
 *
 * ContractChecker operationalizes both halves:
 *  - the software side: does the program obey DRF0 (Definition 3)?
 *  - the hardware side: does a recorded hardware execution of the program
 *    have a sequentially consistent explanation (Lemma 1), and does its
 *    observable result fall inside the set of results the idealized
 *    architecture can produce?
 */

#ifndef WO_CORE_CONTRACT_HH
#define WO_CORE_CONTRACT_HH

#include <string>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

/** Everything learned about one hardware execution vs. the contract. */
struct ContractReport
{
    /** The headline: the execution appears sequentially consistent. */
    bool appearsSc = false;

    /** Trace-level SC verification (Lemma 1). */
    ScReport scReport;

    /** Whether the observable result was also checked against the
     * enumerated idealized outcome set. */
    bool outcomeChecked = false;

    /** Result membership in the idealized outcome set (valid when
     * outcomeChecked). */
    bool outcomeInScSet = false;

    /** The idealized outcome enumeration hit a cap. */
    bool outcomeSetBounded = false;

    std::string toString() const;
};

/** Knobs for contract checking. */
struct ContractOptions
{
    /** Also enumerate idealized outcomes and check result membership
     * (more expensive; requires the hardware RunResult). */
    bool checkOutcomeSet = false;
};

/**
 * Check one hardware execution against the SC-appearance contract.
 *
 * @param program   the workload that was run
 * @param trace     the hardware execution's dynamic accesses
 * @param hw_result the hardware run's observable result (may be null when
 *                  options.checkOutcomeSet is false)
 */
ContractReport checkExecution(const MultiProgram &program,
                              const ExecutionTrace &trace,
                              const RunResult *hw_result = nullptr,
                              const ContractOptions &options = {});

} // namespace wo

#endif // WO_CORE_CONTRACT_HH
