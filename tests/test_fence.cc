/**
 * @file
 * The RP3-style fence (Section 2.1): "a process is required to wait for
 * acknowledgements on its outstanding requests only on a fence
 * instruction ... this option functions as a weakly ordered system."
 *
 * With fences, even the Relaxed machine can run message passing
 * correctly — the programmer-managed ordering the paper's contract
 * formulation generalizes.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "cpu/program_builder.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/system.hh"

namespace wo {
namespace {

const Addr kData = 0, kFlag = 1;

MultiProgram
fencedMessagePassing()
{
    MultiProgram mp("fenced-mp");
    ProgramBuilder p0, p1;
    p0.store(kData, 42).fence().store(kFlag, 1).halt();
    p1.label("spin")
        .load(0, kFlag)
        .beq(0, 0, "spin")
        .fence()
        .load(1, kData)
        .halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    return mp;
}

TEST(Fence, OrdersMessagePassingOnRelaxedUncachedNetwork)
{
    // Without the fence this configuration reorders the two writes into
    // different memory modules (Figure 1, case 2); the fence restores
    // the producer ordering, and the consumer fence orders its reads.
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Relaxed;
        cfg.cached = false;
        cfg.numMemModules = 2;
        cfg.net.seed = seed;
        cfg.net.jitter = 30;
        System sys(fencedMessagePassing(), cfg);
        ASSERT_TRUE(sys.run()) << "seed " << seed;
        EXPECT_EQ(sys.result().registers[1][1], 42u) << "seed " << seed;
    }
}

TEST(Fence, DrainsTheWriteBuffer)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Relaxed;
        cfg.writeBuffer = true;
        cfg.interconnect = InterconnectKind::Bus;
        cfg.cached = true;
        cfg.warmCaches = true;
        cfg.net.seed = seed;
        System sys(fencedMessagePassing(), cfg);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(sys.result().registers[1][1], 42u) << "seed " << seed;
    }
}

TEST(Fence, FencedDekkerRestoresSc)
{
    // Dekker with a fence between the store and the load is correct
    // even on the relaxed machine. The file's clause is the both-zero
    // outcome.
    const litmus_dsl::CompiledLitmus sb = litmus_dsl::compileLitmusFile(
        std::string(WO_LITMUS_DIR) + "/sb_fence.litmus");
    int violations = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::Relaxed;
        cfg.writeBuffer = true;
        cfg.cached = false;
        cfg.numMemModules = 2;
        cfg.net.seed = seed;
        System sys(sb.program, cfg);
        ASSERT_TRUE(sys.run());
        if (litmus_dsl::evalCond(sb.clause.cond, sys.result(), sb.addrOf))
            ++violations;
        EXPECT_TRUE(verifySc(sys.trace()).sc()) << "seed " << seed;
    }
    EXPECT_EQ(violations, 0);
}

TEST(Fence, NoOpOnIdealizedMachine)
{
    MultiProgram mp("f");
    ProgramBuilder b;
    b.store(0, 1).fence().load(0, 0).halt();
    mp.addProgram(b.build());
    RunResult r = runWithSchedule(mp, {});
    EXPECT_TRUE(r.allHalted);
    EXPECT_EQ(r.registers[0][0], 1u);
}

TEST(Fence, CountsAsStallUnderRelaxed)
{
    // The fence's whole point is to stall: measurable on a slow write.
    MultiProgram fenced = fencedMessagePassing();
    SystemConfig cfg;
    cfg.policy = PolicyKind::Relaxed;
    cfg.cached = true;
    cfg.warmCaches = true;
    cfg.cache.invApplyDelay = 200;
    System sys(fenced, cfg);
    ASSERT_TRUE(sys.run());
    EXPECT_GT(sys.processor(0).stallCycles(), 150u);
}

} // namespace
} // namespace wo
