/**
 * @file
 * Unit tests for the Figure 2-style trace renderer.
 */

#include <gtest/gtest.h>

#include "core/trace_render.hh"
#include "litmus/compiler.hh"
#include "system/system.hh"
#include "workload/figures.hh"

namespace wo {
namespace {

TEST(TraceRender, EmptyTrace)
{
    ExecutionTrace t;
    EXPECT_EQ(renderColumns(t), "(empty trace)\n");
}

TEST(TraceRender, Figure2aHasColumnsPerProcessor)
{
    ExecutionTrace t = figure2aTrace();
    std::string s = renderColumns(t);
    for (int p = 0; p < 6; ++p) {
        EXPECT_NE(s.find("P" + std::to_string(p)), std::string::npos)
            << s;
    }
    // Contains the kinds in figure notation.
    EXPECT_NE(s.find("W(x0)"), std::string::npos) << s;
    EXPECT_NE(s.find("S.w(x10)"), std::string::npos) << s;
    EXPECT_NE(s.find("S.rw(x10)"), std::string::npos) << s;
}

TEST(TraceRender, RowsFollowCommitOrder)
{
    ExecutionTrace t = figure2bTrace();
    std::string s = renderColumns(t);
    // P0's read of x commits at tick 0, P4's write of y at tick 7:
    // the read's row must come first.
    std::size_t first = s.find("R(x0)");
    std::size_t last = s.find("W(x1)=0");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(last, std::string::npos);
    EXPECT_LT(first, last);
}

TEST(TraceRender, GapsAreElided)
{
    ExecutionTrace t;
    Access a;
    a.proc = 0;
    a.poIndex = 0;
    a.kind = AccessKind::DataWrite;
    a.addr = 1;
    a.commitTick = 0;
    t.add(a);
    a.poIndex = 1;
    a.commitTick = 1000;
    t.add(a);
    std::string s = renderColumns(t);
    EXPECT_NE(s.find("..."), std::string::npos);
    // Not a thousand rows.
    EXPECT_LT(std::count(s.begin(), s.end(), '\n'), 12);
}

TEST(TraceRender, HardwareTraceRenders)
{
    const MultiProgram mp =
        litmus_dsl::compileLitmusFile(WO_LITMUS_DIR "/mp_sync.litmus")
            .program;
    SystemConfig cfg;
    cfg.policy = PolicyKind::Def2Drf0;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    std::string s = renderColumns(sys.trace());
    EXPECT_NE(s.find("W(x0)=42"), std::string::npos) << s;
    EXPECT_NE(s.find("R(x0)=42"), std::string::npos) << s;
}

} // namespace
} // namespace wo
