/**
 * @file
 * wo-litmus: batch litmus-test runner over the text-format DSL.
 *
 *   $ wo-litmus [options] <file-or-dir>...
 *
 * Loads every .litmus file named (directories scanned for *.litmus),
 * compiles them, fans runs across seeds x consistency policies x system
 * variants on the parallel campaign engine, and prints a per-test
 * outcome histogram plus a PASS/FAIL table. Each worker thread resets a
 * pooled System per (machine, policy) cell rather than building one per
 * run. Output is byte-identical for any --threads value. Every
 * forbidden-outcome, non-SC and axiom-forbidden failure line ends with
 * the wo-trace command that replays the cell's first offending run.
 *
 * Options:
 *   --seeds=N        seeds per (policy, machine) cell, a positive
 *                    integer                                 [20]
 *   --threads=N      worker threads (or WO_THREADS)          [hardware]
 *   --seed=S         base of the deterministic seed stream   [1]
 *   --policies=a,b   subset of sc,def1,def2drf0,def2drf1,relaxed
 *   --machines=a,b   machine-registry subset to run on       [bus,net,net-u]
 *   --list-machines  print the machine registry and exit
 *   --json[=FILE]    write a JSON report (to FILE, else stdout)
 *   --no-axiom-check skip the differential axiomatic stage, which by
 *                    default fails any cell whose observed outcome the
 *                    policy's bounding axiomatic model forbids (witness
 *                    cycle in the failure message)
 *   --coverage-report[=FILE]
 *                    record coverage counters (protocol transitions,
 *                    stall reasons, latency buckets, outcome coverage
 *                    against the axiomatic allowed sets) and print the
 *                    per-policy observed vs allowed outcome coverage;
 *                    with =FILE, grow the standing wocover report at
 *                    FILE (read, merge this run, rewrite) — the
 *                    committed artifact wo-cover renders heatmaps,
 *                    lists gaps and diffs against
 *   --no-histograms  omit outcome histograms from the text report
 *   --list           parse + compile only; list tests and exit
 *
 * Exit status: 0 all tests pass, 1 failures, 2 bad usage (including a
 * malformed --seed/--threads/--seeds value, or a fan of more than
 * INT_MAX jobs or too large for memory) or parse error.
 */

#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "litmus/runner.hh"
#include "workload/campaign.hh"

namespace {

using namespace wo;
using namespace wo::litmus_dsl;

int
usage(std::ostream &os)
{
    os << "usage: wo-litmus [--seeds=N] [--threads=N] [--seed=S]\n"
          "                 [--policies=sc,def1,def2drf0,def2drf1,"
          "relaxed]\n"
          "                 [--machines=LIST] [--list-machines]\n"
          "                 [--json[=FILE]] [--no-histograms] [--list]\n"
          "                 [--no-axiom-check] [--coverage-report[=FILE]]\n"
          "                 <file-or-dir>...\n";
    return 2;
}

bool
parsePolicies(const std::string &list, std::vector<PolicyKind> &out)
{
    out.clear();
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        std::optional<PolicyKind> kind = parsePolicyKind(item);
        if (!kind)
            return false;
        out.push_back(*kind);
    }
    return !out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    RunnerOptions options;
    try {
        options.threads = consumeThreadsFlag(argc, argv);
        options.baseSeed = consumeSeedFlag(argc, argv, 1);
    } catch (const std::exception &e) {
        std::cerr << "wo-litmus: " << e.what() << "\n";
        return 2;
    }

    bool json = false;
    bool list_only = false;
    bool histograms = true;
    bool coverage = false;
    std::string json_file;
    std::string coverage_file;
    std::vector<std::string> paths;
    std::vector<const MachineSpec *> machines = defaultMachines();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--seeds=", 0) == 0) {
            try {
                options.seeds = parseFlagValue<int>("--seeds", argv[i] + 8);
                if (options.seeds == 0)
                    throw std::invalid_argument("bad --seeds value '0'");
            } catch (const std::invalid_argument &e) {
                std::cerr << "wo-litmus: " << e.what() << "\n";
                return 2;
            }
        } else if (arg.rfind("--policies=", 0) == 0) {
            if (!parsePolicies(arg.substr(11), options.policies)) {
                std::cerr << "wo-litmus: bad --policies list '"
                          << arg.substr(11) << "'\n";
                return 2;
            }
        } else if (arg.rfind("--machines=", 0) == 0) {
            try {
                machines = parseMachineList(arg.substr(11));
            } catch (const std::exception &e) {
                std::cerr << "wo-litmus: " << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--list-machines") {
            printMachineList(std::cout);
            return 0;
        } else if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_file = arg.substr(7);
        } else if (arg == "--no-axiom-check") {
            options.axiomCheck = false;
        } else if (arg == "--coverage-report") {
            coverage = true;
            options.coverage = true;
        } else if (arg.rfind("--coverage-report=", 0) == 0) {
            coverage = true;
            options.coverage = true;
            coverage_file = arg.substr(18);
            if (coverage_file.empty()) {
                std::cerr << "wo-litmus: empty --coverage-report file\n";
                return 2;
            }
        } else if (arg == "--no-histograms") {
            histograms = false;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "wo-litmus: unknown option '" << arg << "'\n";
            return usage(std::cerr);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        return usage(std::cerr);

    std::vector<CompiledLitmus> tests;
    try {
        for (const std::string &f : findLitmusFiles(paths))
            tests.push_back(compileLitmusFile(f));
    } catch (const LitmusError &e) {
        std::cerr << "wo-litmus: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "wo-litmus: " << e.what() << "\n";
        return 2;
    }
    if (tests.empty()) {
        std::cerr << "wo-litmus: no .litmus files found\n";
        return 2;
    }

    if (list_only) {
        for (const CompiledLitmus &t : tests) {
            std::cout << t.name << "  (" << t.file << "): "
                      << t.program.numProcs() << " procs, "
                      << toString(t.clause) << "\n";
        }
        return 0;
    }

    // A fan too large to index (or to hold in memory) is bad usage.
    CorpusReport report;
    try {
        report = runCorpus(tests, options, machines);
    } catch (const std::invalid_argument &e) {
        std::cerr << "wo-litmus: " << e.what() << "\n";
        return 2;
    } catch (const std::bad_alloc &) {
        std::cerr << "wo-litmus: out of memory for the corpus fan "
                     "(lower --seeds or --machines)\n";
        return 2;
    }
    printReport(std::cout, report, histograms, coverage);

    if (json) {
        if (json_file.empty()) {
            writeJsonReport(std::cout, report);
        } else {
            std::ofstream out(json_file);
            if (!out) {
                std::cerr << "wo-litmus: cannot write " << json_file
                          << "\n";
                return 2;
            }
            writeJsonReport(out, report);
            std::cout << "json report written to " << json_file << "\n";
        }
    }
    if (!coverage_file.empty()) {
        // Grow the standing report: merge this run into whatever the
        // file already holds (an absent or empty file starts fresh; a
        // malformed one is an error, not something to overwrite).
        StandingCoverage st = standingCoverage(report);
        {
            std::ifstream in(coverage_file);
            if (in && in.peek() != std::ifstream::traits_type::eof()) {
                try {
                    StandingCoverage prev = StandingCoverage::read(in);
                    prev.mergeFrom(st);
                    st = std::move(prev);
                } catch (const std::exception &e) {
                    std::cerr << "wo-litmus: " << coverage_file << ": "
                              << e.what() << "\n";
                    return 2;
                }
            }
        }
        std::ofstream out(coverage_file);
        if (!out) {
            std::cerr << "wo-litmus: cannot write " << coverage_file
                      << "\n";
            return 2;
        }
        st.write(out);
        std::cout << "coverage report written to " << coverage_file
                  << "\n";
    }
    return report.pass ? 0 : 1;
}
