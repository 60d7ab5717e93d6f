/**
 * @file
 * Unit tests for the axiomatic backend (src/axiom/): relation graphs,
 * path enumeration, candidate generation, and the allowed-set
 * differences that discriminate the shipped models — sc must forbid
 * exactly the interleaving-impossible outcomes, wb must additionally
 * admit the write-buffer reorderings, and drf0sc must switch between
 * them on the program's DRF0 status.
 */

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "axiom/enumerate.hh"
#include "axiom/relation.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/runner.hh"

namespace wo {
namespace axiom {
namespace {

using litmus_dsl::CompiledLitmus;
using litmus_dsl::ObservedVar;

std::string
litmusPath(const std::string &file)
{
    return std::string(WO_LITMUS_DIR) + "/" + file;
}

/** Allowed outcomes of @p model on a litmus file, projected to the
 * clause's outcome-key form ("P0:r0=0 P1:r0=0"). */
std::set<std::string>
allowedKeys(const CompiledLitmus &test, const std::string &model,
            bool program_drf0 = false)
{
    ModelContext ctx;
    ctx.programDrf0 = program_drf0;
    AxiomResult res =
        enumerateAllowed(test.program, axiomModels(), ctx, {});
    EXPECT_TRUE(res.complete) << test.name;
    std::vector<ObservedVar> vars =
        litmus_dsl::observedVars(test.clause.cond);
    std::set<std::string> keys;
    for (const RunResult &r : res.allowed.at(model)) {
        RunResult filled = r;
        for (const auto &[loc, addr] : test.addrOf) {
            if (!filled.finalMemory.count(addr))
                filled.finalMemory[addr] = test.program.initialValue(addr);
        }
        keys.insert(litmus_dsl::outcomeKey(vars, filled, test.addrOf));
    }
    return keys;
}

/** The classic SB program, hand-built: P0 {W x=1; R y}, P1 {W y=1; R x}. */
MultiProgram
sbProgram()
{
    MultiProgram mp("sb");
    for (int p = 0; p < 2; ++p) {
        Program prog;
        Instruction st;
        st.op = Opcode::Store;
        st.addr = p == 0 ? 0 : 1;
        st.imm = 1;
        prog.push(st);
        Instruction ld;
        ld.op = Opcode::Load;
        ld.dst = 0;
        ld.addr = p == 0 ? 1 : 0;
        prog.push(ld);
        Instruction halt;
        halt.op = Opcode::Halt;
        prog.push(halt);
        mp.addProgram(prog);
    }
    return mp;
}

TEST(RelGraph, AcyclicAndCycleExtraction)
{
    RelGraph g(3);
    g.addEdge(0, 1, RelKind::Po);
    g.addEdge(1, 2, RelKind::Rf);
    EXPECT_TRUE(g.acyclic());
    EXPECT_TRUE(g.findCycle().empty());

    g.addEdge(2, 0, RelKind::Fr);
    EXPECT_FALSE(g.acyclic());
    std::vector<RelEdge> cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 3u);
    // Edge list is a closed walk: each edge ends where the next starts.
    for (std::size_t i = 0; i < cycle.size(); ++i)
        EXPECT_EQ(cycle[i].to, cycle[(i + 1) % cycle.size()].from);
}

TEST(RelGraph, ShortestCycleWins)
{
    RelGraph g(4);
    // A long cycle 0->1->2->3->0 and a short one 1->2->1.
    g.addEdge(0, 1, RelKind::Po);
    g.addEdge(1, 2, RelKind::Po);
    g.addEdge(2, 3, RelKind::Po);
    g.addEdge(3, 0, RelKind::Co);
    g.addEdge(2, 1, RelKind::Fr);
    EXPECT_EQ(g.findCycle().size(), 2u);
}

TEST(Paths, SbHasOnePathPerProcWithBothValues)
{
    MultiProgram mp = sbProgram();
    PathSet ps = enumeratePaths(mp);
    EXPECT_TRUE(ps.complete);
    ASSERT_EQ(ps.perProc.size(), 2u);
    for (const auto &paths : ps.perProc) {
        // Straight-line code, but paths fork on the load's value: one
        // path observing 0, one observing 1.
        ASSERT_EQ(paths.size(), 2u);
        std::set<Word> observed;
        for (const LocalPath &p : paths) {
            EXPECT_EQ(p.events.size(), 2u);
            observed.insert(p.events[1].valueRead);
        }
        EXPECT_EQ(observed, (std::set<Word>{0, 1}));
    }
    // The value-set fixpoint must offer both 0 (initial) and 1 (the
    // remote store) to each load.
    for (Addr a = 0; a < 2; ++a) {
        ASSERT_TRUE(ps.values.count(a));
        EXPECT_TRUE(ps.values.at(a).count(0));
        EXPECT_TRUE(ps.values.at(a).count(1));
    }
}

TEST(Enumerate, SbCandidateSpace)
{
    MultiProgram mp = sbProgram();
    EnumStats stats;
    std::uint64_t seen = 0;
    bool complete = enumerateCandidates(
        mp, {}, stats, [&](const Candidate &c) {
            ++seen;
            EXPECT_EQ(c.events.size(), 4u);
            EXPECT_EQ(c.rf.size(), 4u);
            // Every read sourced from init or a value-matching write.
            for (const AxEvent &e : c.events) {
                if (!e.reads())
                    continue;
                int src = c.rf[e.id];
                if (src == kInitialWrite) {
                    EXPECT_EQ(e.valueRead, 0);
                } else {
                    EXPECT_EQ(c.events[src].valueWritten, e.valueRead);
                }
            }
            return true;
        });
    EXPECT_TRUE(complete);
    // Two read values per load, one rf source each: four candidates
    // from the four path combinations.
    EXPECT_EQ(seen, 4u);
    EXPECT_EQ(stats.candidates, 4u);
    EXPECT_EQ(stats.combos, 4u);
}

TEST(Enumerate, CandidateOutcomeProjectsCoFinalValues)
{
    MultiProgram mp = sbProgram();
    EnumStats stats;
    enumerateCandidates(mp, {}, stats, [&](const Candidate &c) {
        RunResult r = c.outcome(mp);
        EXPECT_TRUE(r.allHalted);
        // Each location has exactly one write, so memory always ends 1.
        EXPECT_EQ(r.finalMemory.at(0), 1);
        EXPECT_EQ(r.finalMemory.at(1), 1);
        EXPECT_EQ(r.registers.size(), 2u);
        return true;
    });
}

TEST(Models, RegistryAndPolicyMapping)
{
    ASSERT_EQ(axiomModels().size(), 3u);
    EXPECT_NE(findAxiomModel("sc"), nullptr);
    EXPECT_NE(findAxiomModel("wb"), nullptr);
    EXPECT_NE(findAxiomModel("drf0sc"), nullptr);
    EXPECT_EQ(findAxiomModel("tso"), nullptr);

    EXPECT_EQ(modelForPolicy(PolicyKind::Sc)->name(), "sc");
    EXPECT_EQ(modelForPolicy(PolicyKind::Def1)->name(), "drf0sc");
    EXPECT_EQ(modelForPolicy(PolicyKind::Def2Drf0)->name(), "drf0sc");
    EXPECT_EQ(modelForPolicy(PolicyKind::Def2Drf1)->name(), "drf0sc");
    EXPECT_EQ(modelForPolicy(PolicyKind::Relaxed)->name(), "wb");
}

TEST(AllowedSets, SbScForbidsBothZeroWbAllowsIt)
{
    CompiledLitmus t =
        litmus_dsl::compileLitmusFile(litmusPath("sb.litmus"));
    std::set<std::string> sc = allowedKeys(t, "sc");
    std::set<std::string> wb = allowedKeys(t, "wb");
    EXPECT_EQ(sc.size(), 3u);
    EXPECT_EQ(wb.size(), 4u);
    EXPECT_FALSE(sc.count("P0:r0=0 P1:r0=0"));
    EXPECT_TRUE(wb.count("P0:r0=0 P1:r0=0"));
    // wb only widens sc: every interleaving outcome stays allowed.
    EXPECT_TRUE(std::includes(wb.begin(), wb.end(), sc.begin(), sc.end()));
}

TEST(AllowedSets, FencesOnBothSidesRestoreSc)
{
    CompiledLitmus t =
        litmus_dsl::compileLitmusFile(litmusPath("sb_fence.litmus"));
    EXPECT_EQ(allowedKeys(t, "wb"), allowedKeys(t, "sc"));
    EXPECT_FALSE(allowedKeys(t, "wb").count("P0:r0=0 P1:r0=0"));
}

TEST(AllowedSets, OneFenceIsNotEnough)
{
    CompiledLitmus t =
        litmus_dsl::compileLitmusFile(litmusPath("sb_onefence.litmus"));
    std::set<std::string> sc = allowedKeys(t, "sc");
    std::set<std::string> wb = allowedKeys(t, "wb");
    EXPECT_FALSE(sc.count("P0:r0=0 P1:r0=0"));
    EXPECT_TRUE(wb.count("P0:r0=0 P1:r0=0"));
}

TEST(AllowedSets, SyncSbDiscriminatesDrf0Sc)
{
    CompiledLitmus t =
        litmus_dsl::compileLitmusFile(litmusPath("sb_sync.litmus"));
    std::set<std::string> sc = allowedKeys(t, "sc");
    std::set<std::string> wb = allowedKeys(t, "wb");
    EXPECT_EQ(sc.size(), 3u);
    EXPECT_EQ(wb.size(), 4u);
    // All-sync means trivially DRF0: the conditional model promises SC.
    EXPECT_EQ(allowedKeys(t, "drf0sc", true), sc);
    // Treated as racy it would fall back to the raw envelope.
    EXPECT_EQ(allowedKeys(t, "drf0sc", false), wb);
}

TEST(AllowedSets, CoherenceHoldsEvenUnderWb)
{
    CompiledLitmus coww =
        litmus_dsl::compileLitmusFile(litmusPath("coww.litmus"));
    std::set<std::string> expect_final = {"x=2"};
    EXPECT_EQ(allowedKeys(coww, "sc"), expect_final);
    EXPECT_EQ(allowedKeys(coww, "wb"), expect_final);

    CompiledLitmus corr =
        litmus_dsl::compileLitmusFile(litmusPath("corr.litmus"));
    for (const std::string &k : allowedKeys(corr, "wb"))
        EXPECT_EQ(k.find("P1:r0=1 P1:r1=0"), std::string::npos) << k;

    CompiledLitmus corw =
        litmus_dsl::compileLitmusFile(litmusPath("corw.litmus"));
    std::set<std::string> wb = allowedKeys(corw, "wb");
    EXPECT_EQ(wb.size(), 3u);
    EXPECT_FALSE(wb.count("P0:r0=2 x=2"));
}

TEST(AllowedSets, LbAllowedOnlyByWb)
{
    CompiledLitmus t =
        litmus_dsl::compileLitmusFile(litmusPath("lb.litmus"));
    EXPECT_FALSE(allowedKeys(t, "sc").count("P0:r0=1 P1:r0=1"));
    EXPECT_TRUE(allowedKeys(t, "wb").count("P0:r0=1 P1:r0=1"));
}

TEST(Explain, SbBothZeroHasFrCycleUnderSc)
{
    MultiProgram mp = sbProgram();
    ModelContext ctx;
    Explanation ex = explainOutcome(
        mp, axiomModels(), ctx, [](const RunResult &r) {
            return r.registers[0][0] == 0 && r.registers[1][0] == 0;
        });
    ASSERT_TRUE(ex.matched);
    EXPECT_TRUE(ex.complete);
    ASSERT_EQ(ex.models.size(), 3u);
    for (const ModelExplanation &me : ex.models) {
        if (me.model == "sc") {
            EXPECT_FALSE(me.allowed);
            // The rejection is the classic store-buffering fr cycle.
            EXPECT_NE(me.cycle.find("--fr-->"), std::string::npos)
                << me.cycle;
            EXPECT_NE(me.cycle.find("--po-->"), std::string::npos)
                << me.cycle;
        } else {
            EXPECT_TRUE(me.allowed) << me.model;
            RunResult r = me.witness.outcome(mp);
            EXPECT_EQ(r.registers[0][0], 0);
            EXPECT_EQ(r.registers[1][0], 0);
        }
    }
}

TEST(Explain, UnreachableOutcomeMatchesNothing)
{
    MultiProgram mp = sbProgram();
    ModelContext ctx;
    Explanation ex = explainOutcome(
        mp, axiomModels(), ctx,
        [](const RunResult &r) { return r.registers[0][0] == 7; });
    EXPECT_FALSE(ex.matched);
    EXPECT_TRUE(ex.complete);
}

TEST(Enumerate, NaiveModeComputesIdenticalAllowedSets)
{
    for (const char *file :
         {"sb.litmus", "corr.litmus", "lb.litmus", "corw.litmus",
          "sb_fence.litmus"}) {
        CompiledLitmus t =
            litmus_dsl::compileLitmusFile(litmusPath(file));
        ModelContext ctx;
        AxiomLimits naive;
        naive.pruning = false;
        AxiomResult p =
            enumerateAllowed(t.program, axiomModels(), ctx, {});
        AxiomResult n =
            enumerateAllowed(t.program, axiomModels(), ctx, naive);
        ASSERT_TRUE(p.complete && n.complete) << file;
        EXPECT_EQ(p.allowed, n.allowed) << file;
        // Pruning must do strictly less completion work.
        EXPECT_LT(p.stats.candidatesConsidered,
                  n.stats.candidatesConsidered)
            << file;
    }
}

} // namespace
} // namespace axiom
} // namespace wo
