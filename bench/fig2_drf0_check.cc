/**
 * @file
 * Figure 2 reproduction: the DRF0 example and counter-example executions,
 * drawn one column per processor and classified by the happens-before
 * race checker; then Definition 3 applied to programs: a data-read spin
 * with its racing witness execution, and the Test/Unset fix.
 */

#include <string>

#include "bench_util.hh"
#include "core/drf0_checker.hh"
#include "core/trace_render.hh"
#include "litmus/compiler.hh"
#include "workload/figures.hh"

namespace {

using namespace wo;

void
printFig2Report()
{
    benchutil::banner("Figure 2: DRF0 example and counter-example");

    ExecutionTrace a = figure2aTrace();
    Drf0TraceReport ra = checkTrace(a);
    std::cout << "(a) " << a.size() << " accesses, 6 processors: "
              << (ra.raceFree ? "obeys DRF0 (race-free)"
                              : "VIOLATES DRF0")
              << "\n";
    std::cout << renderColumns(a);

    ExecutionTrace b = figure2bTrace();
    Drf0TraceReport rb = checkTrace(b);
    std::cout << "(b) " << b.size() << " accesses, 5 processors: "
              << (rb.raceFree ? "obeys DRF0 (race-free)"
                              : "violates DRF0")
              << "\n";
    std::cout << renderColumns(b);
    std::cout << "    " << rb.toString(b);
    std::cout << "\nExpected shape: (a) race-free, (b) reports the "
                 "P0/P1 conflict on x and the\nP2-or-P3 vs P4 conflicts "
                 "on y, exactly as the figure's caption describes.\n";
}

/** Print @p file's program and its exact DRF0 verdict, with the racing
 * witness execution when it has one. */
void
printProgramCheck(const std::string &file)
{
    MultiProgram mp =
        litmus_dsl::compileLitmusFile(std::string(WO_LITMUS_DIR) + "/" +
                                      file)
            .program;
    std::cout << mp.toString();
    Drf0ProgramReport r = checkProgram(mp);
    std::cout << "obeys DRF0: " << (r.obeysDrf0 ? "yes" : "no") << " ("
              << r.states << " idealized states searched)\n";
    if (!r.obeysDrf0) {
        std::cout << "witness execution:\n" << r.witness.toString()
                  << "races: " << r.witnessReport.toString(r.witness)
                  << "\n";
    }
}

void
printDefinition3Report()
{
    benchutil::banner("Definition 3: a data-read spin and its fix");

    // The Section 6 example: a flag spin written with a plain load
    // instead of a Test. It "works" on SC hardware but is not DRF0, so
    // weakly ordered hardware promises nothing.
    std::cout << "--- A buggy program: spinning on a data read ---\n";
    printProgramCheck("mp_spin.litmus");
    std::cout << "--- The fix: synchronize with Test/Unset ---\n";
    printProgramCheck("mp_sync.litmus");
}

} // namespace

int
main(int argc, char **argv)
{
    wo::benchutil::consumeBenchFlags(argc, argv);
    printFig2Report();
    printDefinition3Report();
    return 0;
}
