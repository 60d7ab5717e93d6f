/**
 * @file
 * wo-axiom: query the axiomatic memory-model backend directly.
 *
 *   $ wo-axiom [options] <file-or-dir>...
 *
 * Compiles the named .litmus files and enumerates candidate executions
 * (src/axiom/), reporting each model's allowed final-state outcomes in
 * the same outcome-key format wo-litmus histograms use.
 *
 * Options:
 *   --model=LIST      comma list of models to evaluate (sc,wb,drf0sc)
 *                     [default: all registered models]
 *   --list-models     print the model registry and exit
 *   --enumerate       print every allowed outcome per model (default)
 *   --explain=KEY     explain one outcome, e.g. "P0:r0=0 P1:r0=0":
 *                     whether any candidate execution produces it, a
 *                     witness candidate (events, rf, co) when a model
 *                     allows it, and the rejecting relation cycle when
 *                     a model forbids it
 *   --drf0=auto|yes|no  the program-DRF0 fact "drf0sc" conditions on
 *                     [auto: wo-litmus's exact check]
 *   --stats           print enumeration work counters
 *   --json[=FILE]     machine-readable report (to FILE, else stdout)
 *
 * Exit status: 0 success, 2 bad usage or parse error.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "axiom/enumerate.hh"
#include "core/drf0_checker.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/runner.hh"
#include "sim/json.hh"

namespace {

using namespace wo;
using namespace wo::litmus_dsl;

int
usage(std::ostream &os)
{
    os << "usage: wo-axiom [--model=sc,wb,drf0sc] [--list-models]\n"
          "                [--enumerate] [--explain=KEY] "
          "[--drf0=auto|yes|no]\n"
          "                [--stats] [--json[=FILE]] <file-or-dir>...\n";
    return 2;
}

void
dumpStats(std::ostream &os, const axiom::EnumStats &st)
{
    os << "   stats  : paths=" << st.pathsEmitted
       << " stutter-pruned=" << st.stutterPruned
       << " value-rounds=" << st.valueRounds << " combos=" << st.combos
       << " prefiltered=" << st.combosPrefiltered << "\n"
       << "            rf-choices=" << st.rfChoices
       << " co-placements=" << st.coPlacements
       << " coherence-pruned=" << st.coherencePruned
       << " considered=" << st.candidatesConsidered
       << " valid=" << st.candidates
       << " model-checks=" << st.modelChecks
       << " memo-hits=" << st.memoHits << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const axiom::AxiomaticModel *> models =
        axiom::axiomModels();
    std::string explain_key;
    std::string drf0_mode = "auto";
    bool stats = false;
    bool json = false;
    std::string json_file;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--model=", 0) == 0) {
            models.clear();
            std::istringstream in(arg.substr(8));
            std::string item;
            while (std::getline(in, item, ',')) {
                const axiom::AxiomaticModel *m =
                    axiom::findAxiomModel(item);
                if (!m) {
                    std::cerr << "wo-axiom: unknown model '" << item
                              << "'\n";
                    return 2;
                }
                models.push_back(m);
            }
            if (models.empty())
                return usage(std::cerr);
        } else if (arg == "--list-models") {
            for (const axiom::AxiomaticModel *m : axiom::axiomModels()) {
                std::cout << m->name() << "\t" << m->summary() << "\n";
            }
            return 0;
        } else if (arg == "--enumerate") {
            // default action; accepted for symmetry
        } else if (arg.rfind("--explain=", 0) == 0) {
            explain_key = arg.substr(10);
            if (explain_key.empty()) {
                std::cerr << "wo-axiom: empty --explain key\n";
                return 2;
            }
        } else if (arg.rfind("--drf0=", 0) == 0) {
            drf0_mode = arg.substr(7);
            if (drf0_mode != "auto" && drf0_mode != "yes" &&
                drf0_mode != "no") {
                std::cerr << "wo-axiom: bad --drf0 value '" << drf0_mode
                          << "'\n";
                return 2;
            }
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_file = arg.substr(7);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "wo-axiom: unknown option '" << arg << "'\n";
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
    } catch (const std::exception &e) {
        std::cerr << "wo-axiom: " << e.what() << "\n";
        return 2;
    }
    if (tests.empty()) {
        std::cerr << "wo-axiom: no .litmus files found\n";
        return 2;
    }

    std::ostringstream js;
    js << "{\n  \"tests\": [\n";

    for (std::size_t t = 0; t < tests.size(); ++t) {
        const CompiledLitmus &test = tests[t];
        std::vector<ObservedVar> vars = observedVars(test.clause.cond);
        axiom::AddrNamer namer = axiom::namerFrom(test.addrOf);

        // The same projection wo-litmus applies to simulated outcomes.
        auto projectKey = [&](const RunResult &r) {
            return outcomeKey(vars, clauseOutcome(test, r), test.addrOf);
        };

        // --drf0=auto runs wo-litmus's check: the exact DRF0 search.
        axiom::ModelContext ctx;
        const char *drf0_how = " (forced)";
        if (drf0_mode == "auto") {
            Drf0ProgramReport drf0 = checkProgram(test.program);
            ctx.programDrf0 = drf0.obeysDrf0;
            drf0_how = drf0.bounded ? " (bounded)" : " (exact)";
        } else {
            ctx.programDrf0 = drf0_mode == "yes";
        }

        axiom::AxiomLimits limits;
        axiom::AxiomResult res =
            axiom::enumerateAllowed(test.program, models, ctx, limits);

        std::cout << "== " << test.name << "  (" << test.file << ")\n";
        std::cout << "   clause : " << toString(test.clause) << "\n";
        std::cout << "   drf0   : " << (ctx.programDrf0 ? "yes" : "no")
                  << drf0_how << "\n";
        std::cout << "   axiom  : "
                  << (res.complete ? "complete" : "truncated") << "\n";
        js << "    {\"name\": \"" << jsonEscape(test.name)
           << "\", \"file\": \"" << jsonEscape(test.file)
           << "\", \"drf0\": " << (ctx.programDrf0 ? "true" : "false")
           << ", \"complete\": " << (res.complete ? "true" : "false")
           << ",\n     \"allowed\": {";

        bool first_model = true;
        for (const axiom::AxiomaticModel *m : models) {
            const std::set<RunResult> &set = res.allowed.at(m->name());
            std::set<std::string> keys;
            for (const RunResult &r : set)
                keys.insert(projectKey(r));
            std::cout << "   " << m->name() << " allows " << keys.size()
                      << " outcome" << (keys.size() == 1 ? "" : "s")
                      << ":\n";
            for (const std::string &k : keys)
                std::cout << "     {" << k << "}\n";
            js << (first_model ? "" : ", ") << "\""
               << jsonEscape(m->name()) << "\": [";
            first_model = false;
            bool first_key = true;
            for (const std::string &k : keys) {
                js << (first_key ? "" : ", ") << "\"" << jsonEscape(k)
                   << "\"";
                first_key = false;
            }
            js << "]";
        }
        js << "}";

        if (stats)
            dumpStats(std::cout, res.stats);

        if (!explain_key.empty()) {
            axiom::Explanation ex = axiom::explainOutcome(
                test.program, models, ctx,
                [&](const RunResult &r) {
                    return projectKey(r) == explain_key;
                },
                limits, namer);
            std::cout << "   explain {" << explain_key << "}:\n";
            js << ",\n     \"explain\": {\"outcome\": \""
               << jsonEscape(explain_key) << "\", \"matched\": "
               << (ex.matched ? "true" : "false") << ", \"models\": {";
            if (!ex.matched) {
                std::cout
                    << "     no candidate execution produces this "
                       "outcome"
                    << (ex.complete ? "" : " (enumeration truncated)")
                    << "\n";
            }
            for (std::size_t i = 0; i < ex.models.size(); ++i) {
                const axiom::ModelExplanation &me = ex.models[i];
                js << (i ? ", " : "") << "\"" << jsonEscape(me.model)
                   << "\": {\"allowed\": "
                   << (me.allowed ? "true" : "false") << ", \"cycle\": \""
                   << jsonEscape(me.cycle) << "\"}";
                if (!ex.matched)
                    continue;
                if (me.allowed) {
                    std::cout << "     " << me.model
                              << ": ALLOWED; witness execution:\n";
                    std::istringstream lines(me.witness.toString(namer));
                    std::string line;
                    while (std::getline(lines, line))
                        std::cout << "       " << line << "\n";
                } else {
                    std::cout << "     " << me.model << ": FORBIDDEN";
                    if (!me.cycle.empty())
                        std::cout << " by cycle:\n       " << me.cycle
                                  << "\n";
                    else
                        std::cout << "\n";
                }
            }
            js << "}}";
        }
        js << "}" << (t + 1 < tests.size() ? "," : "") << "\n";
        std::cout << "\n";
    }
    js << "  ]\n}\n";

    if (json) {
        if (json_file.empty()) {
            std::cout << js.str();
        } else {
            std::ofstream out(json_file);
            if (!out) {
                std::cerr << "wo-axiom: cannot write " << json_file
                          << "\n";
                return 2;
            }
            out << js.str();
            std::cout << "json report written to " << json_file << "\n";
        }
    }
    return 0;
}
