/**
 * @file
 * Compiler from the parsed litmus AST to an executable MultiProgram.
 *
 * Symbolic locations are interned following the repo-wide litmus
 * convention: data locations first (addresses 0..D-1, in declaration
 * order), then synchronization locations (D..D+S-1). Synchronization
 * mnemonics (test/unset/tas) may only target `sync`-declared locations,
 * so DRF0's "hardware-recognizable synchronization" property is visible
 * in the source text; plain load/store may target anything (the barrier
 * builder reads a sync count with an ordinary load).
 */

#ifndef WO_LITMUS_COMPILER_HH
#define WO_LITMUS_COMPILER_HH

#include <map>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "cpu/program.hh"
#include "litmus/ast.hh"
#include "litmus/parser.hh"

namespace wo {
namespace litmus_dsl {

/** A litmus test lowered to an executable workload. */
struct CompiledLitmus
{
    std::string name;
    std::string file;
    MultiProgram program;
    Clause clause;

    /** Symbolic location → interned address (data first, then sync). */
    std::map<std::string, Addr> addrOf;

    /** Location names in address order (dataLocs then syncLocs). */
    std::vector<std::string> dataLocs;
    std::vector<std::string> syncLocs;
};

/** Lower @p t; throws LitmusError (with file:line) on semantic errors:
 * undeclared locations, sync mnemonics on data locations, unknown branch
 * labels, clause terms out of range. */
CompiledLitmus compileLitmus(const LitmusTest &t);

/** parseLitmusFile + compileLitmus. */
CompiledLitmus compileLitmusFile(const std::string &path);

/** The outcome @p test's clause judges for a finished run @p r: clause
 * locations the run never touched read as their declared initial
 * values. */
RunResult clauseOutcome(const CompiledLitmus &test, RunResult r);

} // namespace litmus_dsl
} // namespace wo

#endif // WO_LITMUS_COMPILER_HH
