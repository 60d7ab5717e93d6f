/**
 * @file
 * Race detection walkthrough: classify executions and programs against
 * DRF0 (Definition 3), including the paper's Figure 2 example and
 * counter-example, and a buggy program a user might actually write.
 *
 *   $ ./race_detection
 */

#include <iostream>
#include <string>

#include "core/drf0_checker.hh"
#include "core/trace_render.hh"
#include "litmus/compiler.hh"
#include "workload/figures.hh"
#include "workload/litmus.hh"

int
main()
{
    using namespace wo;

    std::cout << "--- Figure 2(a): the DRF0-conformant execution ---\n";
    ExecutionTrace a = figure2aTrace();
    std::cout << renderColumns(a);
    Drf0TraceReport ra = checkTrace(a);
    std::cout << "verdict: " << ra.toString(a) << "\n\n";

    std::cout << "--- Figure 2(b): the counter-example ---\n";
    ExecutionTrace b = figure2bTrace();
    std::cout << renderColumns(b);
    Drf0TraceReport rb = checkTrace(b);
    std::cout << "verdict: " << rb.toString(b) << "\n";

    std::cout << "--- A buggy program: spinning on a data read ---\n";
    // The Section 6 example: a barrier-count spin written with a plain
    // load instead of a Test. It "works" on SC hardware but is not DRF0,
    // so weakly ordered hardware promises nothing.
    MultiProgram racy =
        litmus_dsl::compileLitmusFile(std::string(WO_LITMUS_DIR) +
                                      "/mp_spin.litmus")
            .program;
    std::cout << racy.toString();
    Drf0ProgramReport rp = checkProgram(racy);
    std::cout << "obeys DRF0: " << (rp.obeysDrf0 ? "yes" : "no") << " ("
              << rp.states << " idealized states searched)\n";
    if (!rp.obeysDrf0) {
        std::cout << "witness execution:\n" << rp.witness.toString()
                  << "races: " << rp.witnessReport.toString(rp.witness)
                  << "\n";
    }

    std::cout << "--- The fix: synchronize with Test/Unset ---\n";
    MultiProgram fixed = syncMessagePassing();
    std::cout << fixed.toString();
    Drf0ProgramReport rf = checkProgram(fixed);
    std::cout << "obeys DRF0: " << (rf.obeysDrf0 ? "yes" : "no") << " ("
              << rf.states << " idealized states searched)\n";
    return rp.obeysDrf0 || !rf.obeysDrf0 ? 1 : 0;
}
