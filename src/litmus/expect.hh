/**
 * @file
 * Expectation evaluation: does a concrete RunResult satisfy a litmus
 * clause's condition, and what "outcome" did a run land on?
 *
 * The outcome key of a run is the tuple of values of every term the
 * clause mentions (registers and final memory locations), rendered
 * "P0:r0=0 P1:r0=1" — the unit the batch runner histograms, mirroring
 * herd's per-final-state counts.
 */

#ifndef WO_LITMUS_EXPECT_HH
#define WO_LITMUS_EXPECT_HH

#include <map>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "litmus/ast.hh"

namespace wo {

class System;

namespace litmus_dsl {

/** Truth value of @p c against one run's observable result. Register
 * terms index RunResult::registers; memory terms read finalMemory via
 * @p addrOf (absent addresses read as @p initials, default 0). */
bool evalCond(const Cond &c, const RunResult &r,
              const std::map<std::string, Addr> &addrOf);

/** One observed variable of a clause (a register or a location). */
struct ObservedVar
{
    bool isReg = true;
    int proc = -1;
    int reg = -1;
    std::string loc;

    bool operator<(const ObservedVar &o) const;
    bool operator==(const ObservedVar &o) const;

    std::string toString() const; ///< "P0:r1" or "x"
};

/** The distinct variables mentioned by @p c, in first-mention order. */
std::vector<ObservedVar> observedVars(const Cond &c);

/** Render @p r projected onto @p vars: "P0:r0=0 P1:r0=1 x=2". */
std::string outcomeKey(const std::vector<ObservedVar> &vars,
                       const RunResult &r,
                       const std::map<std::string, Addr> &addrOf);

/**
 * A clause resolved once against its test: every observed variable's
 * register or address and "P0:r0" / "x" label, and the condition as a
 * flat preorder array whose terms name those variables. Judging a
 * finished System through it reads each value in place
 * (System::registerValue / finalValue): no RunResult, no name lookup, no
 * allocation beyond the key's own growth. holds() and appendKey() agree
 * with evalCond and outcomeKey on clauseOutcome(test, sys.result()).
 * Immutable once built, so campaign workers share one per test.
 */
class ClauseVars
{
  public:
    ClauseVars() = default;

    /** Resolve @p cond's variables through @p addrOf (a location it
     * does not name reads 0, as in evalCond). */
    ClauseVars(const Cond &cond, const std::map<std::string, Addr> &addrOf);

    /** observedVars(cond), in the key's order. */
    const std::vector<ObservedVar> &vars() const { return vars_; }

    /** Truth value of the condition on @p sys's final state. */
    bool holds(const System &sys) const;

    /** Append @p sys's outcome key ("P0:r0=0 x=1") to @p out. */
    void appendKey(const System &sys, std::string &out) const;

  private:
    struct Var
    {
        bool isReg = true;
        int proc = -1;
        int reg = -1;
        bool known = false; ///< location terms: addrOf names it
        Addr addr = 0;
        std::string label; ///< ObservedVar::toString()
    };

    /** One condition node; a subtree spans [its index, end). */
    struct Node
    {
        Cond::Kind kind = Cond::Kind::RegTerm;
        CmpOp op = CmpOp::Eq;
        Word value = 0;
        int var = -1; ///< terms: index into vars_
        int end = 0;
    };

    void flatten(const Cond &c);
    bool eval(const System &sys, int node) const;
    Word valueOf(const System &sys, const Var &v) const;

    std::vector<ObservedVar> vars_;
    std::vector<Var> resolved_;
    std::vector<Node> nodes_;
};

} // namespace litmus_dsl
} // namespace wo

#endif // WO_LITMUS_EXPECT_HH
