/**
 * @file
 * Figure 2 reproduction: the DRF0 example and counter-example executions,
 * classified by the happens-before race checker.
 */

#include "bench_util.hh"
#include "core/drf0_checker.hh"
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

    ExecutionTrace b = figure2bTrace();
    Drf0TraceReport rb = checkTrace(b);
    std::cout << "(b) " << b.size() << " accesses, 5 processors: "
              << (rb.raceFree ? "obeys DRF0 (race-free)"
                              : "violates DRF0")
              << "\n";
    std::cout << "    " << rb.toString(b);
    std::cout << "\nExpected shape: (a) race-free, (b) reports the "
                 "P0/P1 conflict on x and the\nP2-or-P3 vs P4 conflicts "
                 "on y, exactly as the figure's caption describes.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    wo::benchutil::consumeBenchFlags(argc, argv);
    printFig2Report();
    return 0;
}
