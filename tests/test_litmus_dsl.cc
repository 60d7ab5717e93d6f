/**
 * @file
 * The litmus DSL frontend: parser happy paths and diagnostics (every
 * malformed input must throw LitmusError with a file:line, never
 * crash), the compiler's data-then-sync address map, the expectation
 * evaluator, and the batch runner's thread-count determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/parser.hh"
#include "litmus/runner.hh"
#include "workload/campaign.hh"

namespace wo {
namespace litmus_dsl {
namespace {

const char *kMp = R"(
# two-processor message passing
name mini-mp

init {
    data = 0;
    s = 1 sync;
}

P0              | P1              ;
store data, 42  | w: test r0, s   ;
unset s, 0      | bne r0, 0, w    ;
halt            | load r1, data   ;
                | halt            ;

forbidden (P1:r1 != 42)
)";

TEST(LitmusParser, ParsesMessagePassing)
{
    LitmusTest t = parseLitmus(kMp, "mini.litmus");
    EXPECT_EQ(t.name, "mini-mp");
    ASSERT_EQ(t.inits.size(), 2u);
    EXPECT_EQ(t.inits[0].loc, "data");
    EXPECT_EQ(t.inits[0].value, 0u);
    EXPECT_FALSE(t.inits[0].sync);
    EXPECT_EQ(t.inits[1].loc, "s");
    EXPECT_EQ(t.inits[1].value, 1u);
    EXPECT_TRUE(t.inits[1].sync);

    ASSERT_EQ(t.procs.size(), 2u);
    ASSERT_EQ(t.procs[0].size(), 3u);
    EXPECT_EQ(t.procs[0][0].mnemonic, "store");
    EXPECT_EQ(t.procs[0][0].loc, "data");
    EXPECT_EQ(t.procs[0][0].imm, 42u);
    ASSERT_EQ(t.procs[1].size(), 4u);
    EXPECT_EQ(t.procs[1][0].label, "w");
    EXPECT_EQ(t.procs[1][0].mnemonic, "test");
    EXPECT_EQ(t.procs[1][1].mnemonic, "bne");
    EXPECT_EQ(t.procs[1][1].target, "w");

    EXPECT_EQ(t.clause.kind, ClauseKind::Forbidden);
    EXPECT_FALSE(t.clause.always);
    EXPECT_EQ(toString(t.clause), "forbidden (P1:r1 != 42)");
}

TEST(LitmusParser, DefaultsNameToFileStem)
{
    LitmusTest t = parseLitmus(
        "init { x = 0; }\nP0 ;\nhalt ;\nexists (P0:r0 == 0)\n",
        "dir/some_test.litmus");
    EXPECT_EQ(t.name, "some_test");
}

TEST(LitmusParser, ParsesConditionGrammar)
{
    LitmusTest t = parseLitmus(
        "init { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "load r0, x | load r0, y ;\n"
        "halt | halt ;\n"
        "exists (!(P0:r0 == 1 && P1:r0 == 1) || x != 0)\n",
        "c.litmus");
    EXPECT_EQ(t.clause.kind, ClauseKind::Exists);
    EXPECT_EQ(toString(t.clause.cond),
              "(!(P0:r0 == 1 && P1:r0 == 1) || x != 0)");
}

/** Expects parse/compile of @p src to fail at @p line of f.litmus. */
void
expectErrorAt(const std::string &src, int line, const char *what_substr)
{
    try {
        compileLitmus(parseLitmus(src, "f.litmus"));
        FAIL() << "expected LitmusError: " << what_substr;
    } catch (const LitmusError &e) {
        EXPECT_EQ(e.file(), "f.litmus") << e.what();
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find("f.litmus:"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(what_substr),
                  std::string::npos)
            << e.what();
    }
}

TEST(LitmusParserErrors, MissingInitSection)
{
    expectErrorAt("name t\nP0 ;\nhalt ;\nexists (P0:r0 == 0)\n", 2,
                  "init");
}

TEST(LitmusParserErrors, MalformedInitLine)
{
    expectErrorAt("init {\n  x 1;\n}\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  2, "'='");
}

TEST(LitmusParserErrors, DuplicateInitLocation)
{
    expectErrorAt("init { x = 0;\n  x = 1; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  2, "already declared");
}

TEST(LitmusParserErrors, UnknownMnemonic)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nfrobnicate r0, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "unknown mnemonic");
}

TEST(LitmusParserErrors, BadRegisterName)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nload q7, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "register");
}

TEST(LitmusParserErrors, OutOfRangeNumbers)
{
    // Oversized numbers are rejected with the offending token, never
    // wrapped (2^64 + 1 once compiled as 1) or left to escape as
    // std::out_of_range.
    expectErrorAt("init { x = 0; }\nP0 ;\nmovi r0, 18446744073709551617 ;\n"
                  "exists (P0:r0 == 1)\n",
                  3, "'18446744073709551617'");
    expectErrorAt("init { x = 0; }\nP0 ;\nmovi r0, -9223372036854775809 ;\n"
                  "exists (P0:r0 == 1)\n",
                  3, "'-9223372036854775809'");
    expectErrorAt("init { x = 0; }\nP0 ;\nload r99999999999, x ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "'r99999999999'");
    expectErrorAt("init { x = 0; }\nP0 ;\nstore x, r99999999999 ;\n"
                  "exists (x == 0)\n",
                  3, "'r99999999999'");
    expectErrorAt("init { x = 0; }\nP0 | P99999999999 ;\nhalt | halt ;\n"
                  "exists (x == 0)\n",
                  2, "'P99999999999'");
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r4000000000 == 0)\n",
                  4, "'r4000000000'");

    // The extremes of each range still parse.
    CompiledLitmus c = compileLitmus(parseLitmus(
        "init { x = 0; }\nP0 ;\nmovi r0, 18446744073709551615 ;\n"
        "movi r1, -9223372036854775808 ;\nexists (P0:r0 == 0)\n",
        "max.litmus"));
    EXPECT_EQ(c.program.program(0).at(0).imm, ~Word{0});
    EXPECT_EQ(c.program.program(0).at(1).imm, Word{1} << 63);
}

TEST(LitmusParserErrors, UnbalancedExistsClause)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0\n",
                  4, "')'");
}

TEST(LitmusParserErrors, ClauseMissingParenthesis)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\nexists P0:r0 == 0\n", 4,
                  "'('");
}

TEST(LitmusParserErrors, MissingClause)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n", 3, "clause");
}

TEST(LitmusParserErrors, TrailingGarbageAfterClause)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\nwhatever\n",
                  5, "after the final clause");
    expectErrorAt("init { x = 0; }\nP0 ;\nnop nop ;\nexists (x == 0)\n", 3,
                  "trailing tokens in cell");
}

TEST(LitmusParserErrors, RowWithTooManyCells)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt | halt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "cells");
}

TEST(LitmusCompilerErrors, UndeclaredLocation)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nload r0, y ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "undeclared");
}

TEST(LitmusCompilerErrors, SyncMnemonicOnDataLocation)
{
    expectErrorAt("init { x = 0; }\nP0 ;\ntas r0, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "sync");
}

TEST(LitmusCompilerErrors, UnknownBranchLabel)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nbeq r0, 0, nowhere ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "label");
}

TEST(LitmusCompilerErrors, DuplicateLabel)
{
    expectErrorAt("init { x = 0; }\nP0 ;\na: nop ;\na: nop ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  4, "duplicate label");
}

TEST(LitmusCompilerErrors, ClauseProcOutOfRange)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P7:r0 == 0)\n",
                  4, "processor");
}

TEST(LitmusCompilerErrors, ClauseLocationUndeclared)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\nexists (zz == 0)\n", 4,
                  "undeclared");
}

TEST(LitmusParserErrors, GarbageNeverCrashes)
{
    const char *garbage[] = {
        "",
        "}{",
        "name\n",
        "init {",
        "init { = ; }",
        "P0 | | P1 ;",
        "exists ()",
        "init { x = 99999999999999999999; }",
        "\xff\xfe\x00garbage",
        "init { x = 0; } P0 ; halt ; forbidden always P0:r0",
    };
    for (const char *src : garbage)
        EXPECT_THROW(parseLitmus(src, "g.litmus"), LitmusError) << src;
}

TEST(LitmusCompiler, InternsDataBeforeSyncInDeclarationOrder)
{
    CompiledLitmus c = compileLitmus(parseLitmus(
        "init { s = 1 sync; b = 0; a = 0; t = 0 sync; }\n"
        "P0 ;\n"
        "store a, 1 ;\n"
        "store b, 2 ;\n"
        "unset s, 0 ;\n"
        "tas r0, t ;\n"
        "halt ;\n"
        "forbidden (a == 0)\n",
        "order.litmus"));
    ASSERT_EQ(c.dataLocs.size(), 2u);
    ASSERT_EQ(c.syncLocs.size(), 2u);
    EXPECT_EQ(c.addrOf.at("b"), 0u);
    EXPECT_EQ(c.addrOf.at("a"), 1u);
    EXPECT_EQ(c.addrOf.at("s"), 2u);
    EXPECT_EQ(c.addrOf.at("t"), 3u);
    // Nonzero declared initials reach the program image.
    EXPECT_EQ(c.program.initialValue(c.addrOf.at("s")), 1u);
    EXPECT_EQ(c.program.initialValue(c.addrOf.at("a")), 0u);
}

TEST(LitmusCompiler, AppendsImplicitHalt)
{
    CompiledLitmus c = compileLitmus(parseLitmus(
        "init { x = 0; }\nP0 ;\nstore x, 1 ;\nexists (x == 1)\n",
        "h.litmus"));
    const Program &p = c.program.program(0);
    ASSERT_GE(p.size(), 2u);
    EXPECT_EQ(p.at(p.size() - 1).op, Opcode::Halt);

    // Explicit instructions lower one to one: a textual fence becomes
    // Opcode::Fence (sb_fence.litmus: store, fence, load, halt).
    CompiledLitmus f = compileLitmusFile(std::string(WO_LITMUS_DIR) +
                                         "/sb_fence.litmus");
    for (int proc = 0; proc < 2; ++proc) {
        const Program &fp = f.program.program(proc);
        ASSERT_EQ(fp.size(), 4u);
        EXPECT_EQ(fp.at(1).op, Opcode::Fence) << "P" << proc;
        EXPECT_EQ(fp.at(3).op, Opcode::Halt) << "P" << proc;
    }
}

RunResult
fakeResult()
{
    RunResult r;
    r.allHalted = true;
    r.registers = {{1, 0}, {0, 7}};
    r.finalMemory[0] = 42;
    return r;
}

TEST(LitmusExpect, EvaluatesBooleanStructure)
{
    std::map<std::string, Addr> addrs{{"x", 0}, {"y", 1}};
    RunResult r = fakeResult();
    LitmusTest t = parseLitmus(
        "init { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "halt | halt ;\n"
        "exists ((P0:r0 == 1 && P1:r1 == 7 && x == 42) || y != 0)\n",
        "e.litmus");
    EXPECT_TRUE(evalCond(t.clause.cond, r, addrs));

    LitmusTest f = parseLitmus(
        "init { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "halt | halt ;\n"
        "exists (!(P0:r0 == 1) || y == 3)\n",
        "e.litmus");
    EXPECT_FALSE(evalCond(f.clause.cond, r, addrs));
}

TEST(LitmusExpect, MissingRegistersAndMemoryReadAsZero)
{
    std::map<std::string, Addr> addrs{{"y", 9}};
    RunResult r = fakeResult();
    LitmusTest t = parseLitmus(
        "init { y = 0; }\nP0 ;\nhalt ;\n"
        "exists (P0:r63 == 0 && y == 0)\n",
        "z.litmus");
    EXPECT_TRUE(evalCond(t.clause.cond, r, addrs));
}

TEST(LitmusExpect, OutcomeKeyProjectsFirstMentionOrder)
{
    std::map<std::string, Addr> addrs{{"x", 0}};
    LitmusTest t = parseLitmus(
        "init { x = 0; }\n"
        "P0 | P1 ;\n"
        "halt | halt ;\n"
        "exists (P1:r1 == 7 && x == 42 && P0:r0 == 1 && P1:r1 == 0)\n",
        "k.litmus");
    std::vector<ObservedVar> vars = observedVars(t.clause.cond);
    ASSERT_EQ(vars.size(), 3u); // the duplicate P1:r1 deduplicates
    EXPECT_EQ(outcomeKey(vars, fakeResult(), addrs),
              "P1:r1=7 x=42 P0:r0=1");
}

TEST(LitmusRunner, ReportsAreIdenticalAcrossThreadCounts)
{
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(kMp, "mini.litmus")));
    corpus.push_back(compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus")));

    RunnerOptions opt;
    opt.seeds = 4;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc, PolicyKind::Relaxed};

    std::string out[2], json[2], cov[2];
    int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        opt.threads = threads[i];
        CorpusReport rep = runCorpus(corpus, opt);
        std::ostringstream os, js, cs;
        printReport(os, rep, /*histograms=*/true, /*coverage=*/true);
        writeJsonReport(js, rep);
        standingCoverage(rep).write(cs);
        out[i] = os.str();
        json[i] = js.str();
        cov[i] = cs.str();
    }
    EXPECT_EQ(out[0], out[1]);
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(cov[0], cov[1]);
    EXPECT_NE(out[0].find("sb"), std::string::npos);
}

TEST(LitmusRunner, FailureLinesNameAWoTraceRepro)
{
    // SB with its weak outcome forbidden even under Relaxed: every
    // machine that exhibits it fails its cell. It comes second in the
    // corpus, so a seed numbered by the job's place in the whole corpus
    // rather than in its test would name another run.
    const std::vector<CompiledLitmus> corpus = {
        compileLitmus(parseLitmus("name wr\ninit { x = 0; }\n"
                                  "P0 ;\n"
                                  "store x, 1 ;\n"
                                  "load r0, x ;\n"
                                  "halt ;\n"
                                  "forbidden (P0:r0 == 0)\n",
                                  "wr.litmus")),
        compileLitmus(parseLitmus(
            "name sb-always\ninit { x = 0; y = 0; }\n"
            "P0 | P1 ;\n"
            "store x, 1 | store y, 1 ;\n"
            "load r0, y | load r0, x ;\n"
            "halt | halt ;\n"
            "forbidden always (P0:r0 == 0 && P1:r0 == 0)\n",
            "sb_always.litmus"))};
    const CompiledLitmus &test = corpus[1];

    // At this base seed net-u's first hit is not its cell's first job,
    // so an off-by-one index-to-seed mapping names a run that misses.
    constexpr std::uint64_t kBase = 4;
    RunnerOptions opt;
    opt.seeds = 5;
    opt.baseSeed = kBase;
    opt.policies = {PolicyKind::Relaxed};
    const std::vector<const MachineSpec *> machines = defaultMachines();

    // Each test's report is the one a corpus of that test alone gives,
    // at any thread count: the analysis jobs run on worker threads beside
    // the other tests' simulations without changing a byte.
    CorpusReport rep;
    for (int threads : {1, 4}) {
        opt.threads = threads;
        CorpusReport both = runCorpus(corpus, opt, machines);
        ASSERT_EQ(both.tests.size(), corpus.size());
        for (std::size_t t = 0; t < corpus.size(); ++t) {
            CorpusReport alone = runCorpus({corpus[t]}, opt, machines);
            ASSERT_EQ(alone.tests.size(), 1u);
            EXPECT_TRUE(both.tests[t] == alone.tests[0])
                << corpus[t].name << " at threads=" << threads;
        }
        if (threads == 1)
            rep = std::move(both);
    }
    EXPECT_TRUE(rep.tests[0].pass);
    ASSERT_EQ(rep.tests[1].failures.size(), machines.size());

    auto hits = [&](const MachineSpec &m, PolicyKind policy,
                    std::uint64_t seed) {
        System sys(test.program, m.config(policy, seed));
        return sys.run() &&
               evalCond(test.clause.cond, clauseOutcome(test, sys.result()),
                        test.addrOf);
    };
    int net_u_first = -1;
    for (const std::string &line : rep.tests[1].failures) {
        const std::string tag = "; repro: wo-trace ";
        std::size_t at = line.find(tag);
        ASSERT_NE(at, std::string::npos) << line;
        std::istringstream in(line.substr(at + tag.size()));
        std::string m, p, s, file, extra;
        in >> m >> p >> s >> file >> extra;
        ASSERT_EQ(m.rfind("--machine=", 0), 0u) << line;
        ASSERT_EQ(p.rfind("--policy=", 0), 0u) << line;
        ASSERT_EQ(s.rfind("--seed=", 0), 0u) << line;
        EXPECT_EQ(file, test.file);
        EXPECT_TRUE(extra.empty()) << line;
        const MachineSpec &machine = machineOrThrow(m.substr(10));
        std::optional<PolicyKind> policy = parsePolicyKind(p.substr(9));
        ASSERT_TRUE(policy) << line;
        const std::uint64_t seed = std::stoull(s.substr(7));
        EXPECT_EQ(line.rfind(toString(*policy) + "/" + machine.name + ":", 0),
                  0u)
            << line;

        // A fresh System at the named seed observes the forbidden
        // outcome, and it is the cell's first job that does.
        EXPECT_TRUE(hits(machine, *policy, seed)) << line;
        int cell = static_cast<int>(
            std::find(machines.begin(), machines.end(), &machine) -
            machines.begin());
        int first = -1;
        for (int j = 0; j < opt.seeds && first < 0; ++j) {
            std::uint64_t js = campaignJobSeed(kBase, cell * opt.seeds + j);
            if (hits(machine, *policy, js))
                first = j;
        }
        ASSERT_GE(first, 0) << line;
        EXPECT_EQ(seed, campaignJobSeed(kBase, cell * opt.seeds + first))
            << line;
        if (machine.name == "net-u")
            net_u_first = first;
    }
    EXPECT_GT(net_u_first, 0);
}

TEST(LitmusRunner, CoverageBreaksDownPerMachine)
{
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus")));

    RunnerOptions opt;
    opt.seeds = 4;
    opt.threads = 2;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc, PolicyKind::Relaxed};

    CorpusReport rep = runCorpus(corpus, opt);
    ASSERT_EQ(rep.tests.size(), 1u);
    const TestReport &tr = rep.tests[0];
    ASSERT_TRUE(tr.axiomChecked);

    // Each policy's "observed N/M" coverage line is followed by one
    // "<machine> n/M" line per cell. Recompute every count from the
    // cells' histograms and the axiom stage's allowed sets: each slice
    // partitions the same allowed set, and the aggregate observed set is
    // the per-machine union.
    std::ostringstream os;
    printReport(os, rep, /*histograms=*/false, /*coverage=*/true);
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    for (std::string l; std::getline(in, l);)
        lines.push_back(l.substr(0, l.find(';'))); // drop the gap lists
    for (PolicyKind pk : opt.policies) {
        std::vector<const CellReport *> cells;
        for (const CellReport &cell : tr.cells) {
            if (cell.policy == pk)
                cells.push_back(&cell);
        }
        ASSERT_EQ(cells.size(), defaultMachines().size());
        std::vector<std::string> allowed;
        for (const ModelAllowedReport &mar : tr.axiomAllowed) {
            if (mar.model == cells[0]->axiomModel)
                allowed = mar.outcomes;
        }
        ASSERT_FALSE(allowed.empty());

        std::vector<std::string> want(1);
        std::set<std::string> union_observed;
        for (const CellReport *cell : cells) {
            int here = 0;
            for (const std::string &key : allowed) {
                if (cell->histogram.count(key)) {
                    ++here;
                    union_observed.insert(key);
                }
            }
            std::ostringstream line;
            line << "     " << std::left << std::setw(9) << cell->variant
                 << here << "/" << allowed.size();
            want.push_back(line.str());
        }
        std::ostringstream agg;
        agg << "   coverage [" << toString(pk) << " via "
            << cells[0]->axiomModel << "]: observed "
            << union_observed.size() << "/" << allowed.size();
        want[0] = agg.str();

        auto at = std::find(lines.begin(), lines.end(), want[0]);
        ASSERT_LE(want.size(), static_cast<std::size_t>(lines.end() - at))
            << want[0];
        EXPECT_EQ(std::vector<std::string>(
                      at, at + static_cast<std::ptrdiff_t>(want.size())),
                  want);
    }

    // The standing wocover rendering carries machine metadata, the
    // protocol transitions the fan exercised and the per-machine
    // outcome coverage rows (count 0 = allowed but unobserved).
    std::ostringstream cs;
    standingCoverage(rep).write(cs);
    const std::string doc = cs.str();
    EXPECT_EQ(doc.rfind("wocover\t1\n", 0), 0u);
    EXPECT_NE(doc.find("machine\tbus\tmsi\t1"), std::string::npos);
    EXPECT_NE(doc.find("machine\tnet-u\tnone\t0"), std::string::npos);
    EXPECT_NE(doc.find("trans\tmsi\t"), std::string::npos);
    EXPECT_NE(doc.find("outcome\tsb\t"), std::string::npos);
}

TEST(LitmusRunner, LongMachineNamesWidenTheNameColumns)
{
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus")));
    RunnerOptions opt;
    opt.seeds = 2;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc};
    const std::vector<std::string> names = {"bus", "net-l2-moesi",
                                            "net-banked"};
    CorpusReport rep =
        runCorpus(corpus, opt, parseMachineList("bus,net-l2-moesi,net-banked"));
    std::ostringstream os;
    printReport(os, rep, /*histograms=*/false, /*coverage=*/true);
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    auto lineStarting = [&](const std::string &prefix) {
        for (const std::string &l : lines) {
            if (l.rfind(prefix, 0) == 0)
                return l;
        }
        ADD_FAILURE() << "no line starts with '" << prefix << "'";
        return std::string();
    };

    // The cell table: every machine's runs count ends where the header's
    // "runs" does, whatever the name's length.
    const std::string header = lineStarting("   policy");
    const std::size_t runsEnd = header.find("runs") + 4;
    const std::size_t nameAt = 3 + 14; // indent + policy column
    for (const std::string &name : names) {
        const std::string row = lineStarting("   SC            " + name + " ");
        ASSERT_GT(row.size(), runsEnd) << name;
        EXPECT_EQ(row.find(' ', row.find_first_not_of(' ', nameAt +
                                                             name.size())),
                  runsEnd)
            << row;
    }
    // The per-machine coverage lines: every count starts one column past
    // the longest name, never run into it.
    const std::size_t countAt = 5 + std::string("net-l2-moesi").size() + 1;
    for (const std::string &name : names) {
        const std::string row = lineStarting("     " + name + " ");
        EXPECT_EQ(row.find_first_not_of(' ', 5 + name.size()), countAt)
            << row;
    }
}

TEST(LitmusRunner, JsonReportEscapesControlCharacters)
{
    // A file path is user input: control characters in it must come out
    // as JSON escapes, never as raw bytes that break the document.
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(kMp, "a\rb\x01.litmus")));
    RunnerOptions opt;
    opt.seeds = 1;
    opt.policies = {PolicyKind::Sc};
    std::ostringstream js;
    writeJsonReport(js, runCorpus(corpus, opt));
    const std::string doc = js.str();
    EXPECT_NE(doc.find("\"file\": \"a\\rb\\u0001.litmus\""),
              std::string::npos);
    for (char c : doc) {
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
            << "raw control byte " << static_cast<int>(c);
    }
}

TEST(LitmusRunner, FanOverIntMaxJobsThrowsBeforeAllocating)
{
    // INT_MAX seeds x 12 default cells cannot be indexed by the int job
    // index. runCorpus must refuse before it sizes the per-job outputs
    // (which could not be allocated), and before it runs anything.
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(kMp, "mp.litmus")));
    RunnerOptions opt;
    opt.seeds = INT_MAX;
    EXPECT_THROW(runCorpus(corpus, opt), std::invalid_argument);
}

TEST(LitmusRunner, FindLitmusFilesRejectsMissingPath)
{
    EXPECT_THROW(findLitmusFiles({"/nonexistent/path.litmus"}),
                 std::runtime_error);
}

TEST(LitmusRunner, DefaultMachinesAreTheHistoricalVariants)
{
    std::vector<const MachineSpec *> machines = defaultMachines();
    ASSERT_EQ(machines.size(), 3u);
    EXPECT_EQ(machines[0]->name, "bus");
    EXPECT_EQ(machines[1]->name, "net");
    EXPECT_EQ(machines[2]->name, "net-u");
}

#ifdef WO_LITMUS_BIN
/** Exit status of the wo-litmus binary run with @p args. */
int
woLitmusExit(const std::string &args)
{
    std::string cmd = std::string(WO_LITMUS_BIN) + " " + args +
                      " > /dev/null 2> /dev/null";
    int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd;
    return WEXITSTATUS(rc);
}

TEST(WoLitmusTool, ListMachinesExitsZero)
{
    // --list-machines needs no corpus argument and must exit 0.
    EXPECT_EQ(woLitmusExit("--list-machines"), 0);
}

TEST(WoLitmusTool, UnknownMachineExitsTwo)
{
    EXPECT_EQ(woLitmusExit("--machines=warp-drive"), 2);
    EXPECT_EQ(woLitmusExit("--machines="), 2);
}

TEST(WoLitmusTool, BadUsageExitsTwo)
{
    EXPECT_EQ(woLitmusExit("--no-such-flag"), 2);
    EXPECT_EQ(woLitmusExit(""), 2); // no corpus paths
    EXPECT_EQ(woLitmusExit("--coverage-report="), 2); // empty file

    // Malformed --seeds values, next to a corpus that would otherwise
    // run and pass.
    const std::string corpus = ::testing::TempDir() + "/wo_seeds_mp.litmus";
    {
        std::ofstream out(corpus);
        ASSERT_TRUE(out);
        out << kMp;
    }
    // Likewise malformed --seed/--threads values (a bare --seed must
    // not swallow the path after it), the removed trace options, and a
    // fan of more than INT_MAX jobs.
    for (const std::string &bad :
         {std::string("--seeds=20abc"), std::string("--seeds="),
          std::string("--seeds=0"), std::string("--seeds=-3"),
          std::string("--seeds=0x10"),
          std::string("--seeds=99999999999999999999"),
          std::string("--seeds=2147483647"),
          std::string("--seed=abc"), std::string("--seed=12x"),
          std::string("--threads=abc"), std::string("--threads="),
          "--seed " + corpus, std::string("--trace=x"),
          std::string("--trace-filter=proc")}) {
        EXPECT_EQ(woLitmusExit(bad + " " + corpus), 2) << bad;
    }
}

TEST(WoLitmusTool, CoverageReportFileIsWritten)
{
    const std::string dir = ::testing::TempDir();
    const std::string corpus = dir + "/wo_cov_mp.litmus";
    const std::string report = dir + "/wo_cov_report.wocover";
    {
        std::ofstream out(corpus);
        ASSERT_TRUE(out);
        out << kMp;
    }
    std::remove(report.c_str());
    EXPECT_EQ(woLitmusExit("--seeds=2 --coverage-report=" + report +
                           " " + corpus),
              0);
    std::ifstream in(report);
    ASSERT_TRUE(in) << "standing coverage report missing: " << report;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    EXPECT_EQ(doc.rfind("wocover\t1\n", 0), 0u);
    EXPECT_NE(doc.find("meta\truns\t1"), std::string::npos);
    EXPECT_NE(doc.find("machine\tbus\tmsi\t1"), std::string::npos);
    EXPECT_NE(doc.find("trans\tmsi\t"), std::string::npos);

    // A second run grows the same file instead of overwriting it.
    EXPECT_EQ(woLitmusExit("--seeds=2 --coverage-report=" + report +
                           " " + corpus),
              0);
    std::ifstream in2(report);
    ASSERT_TRUE(in2);
    std::stringstream buf2;
    buf2 << in2.rdbuf();
    EXPECT_NE(buf2.str().find("meta\truns\t2"), std::string::npos);

    // A malformed standing report is an error, not clobbered.
    {
        std::ofstream out(report);
        out << "not a wocover file\n";
    }
    EXPECT_EQ(woLitmusExit("--seeds=2 --coverage-report=" + report +
                           " " + corpus),
              2);
}
#endif // WO_LITMUS_BIN

} // namespace
} // namespace litmus_dsl
} // namespace wo
