/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/legacy_event_queue.hh"
#include "sim/rng.hh"

namespace wo {
namespace {

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.scheduleAt(5, [&, i] { order.push_back(i); });
    EXPECT_TRUE(eq.run());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.now(); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.scheduleAt(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(count, 100);
    EXPECT_EQ(eq.now(), 99u);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueue, RunHonorsTickLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&] { ++fired; });
    eq.scheduleAt(1000, [&] { ++fired; });
    EXPECT_FALSE(eq.run(100));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ResetWithPendingEventsThrowsWithoutDrain)
{
    // A reset that would silently drop scheduled work is a caller bug:
    // it throws in every build type (like the past-tick scheduleAt
    // guard), and the queue is left untouched so nothing was lost.
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&] { ++fired; });
    EXPECT_THROW(eq.reset(), std::logic_error);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ResetWithDrainDropsPendingEventsDeliberately)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&] { ++fired; });
    eq.reset(/*drain=*/true);
    EXPECT_TRUE(eq.empty());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, SameTickChainingRunsSameTick)
{
    EventQueue eq;
    bool inner = false;
    eq.scheduleAt(7, [&] { eq.scheduleAfter(0, [&] { inner = true; }); });
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(inner);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, ScheduleAtPastTickThrowsInEveryBuildType)
{
    EventQueue eq;
    eq.scheduleAt(10, [] {});
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(eq.now(), 10u);
    EXPECT_THROW(eq.scheduleAt(9, [] {}), std::logic_error);
    // The present tick and the future stay schedulable, and the failed
    // call must not have corrupted the queue.
    int fired = 0;
    eq.scheduleAt(10, [&] { ++fired; });
    eq.scheduleAfter(0, [&] { ++fired; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, LegacyKernelAlsoThrowsOnPastTick)
{
    LegacyEventQueue eq;
    eq.scheduleAt(10, [] {});
    EXPECT_TRUE(eq.run());
    EXPECT_THROW(eq.scheduleAt(9, [] {}), std::logic_error);
}

TEST(EventQueue, PoolRecyclesAcrossManySlabs)
{
    // Far more live events than one 256-record slab, then steady churn
    // through the free list; every callback must fire exactly once.
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int wave = 0; wave < 4; ++wave) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAfter(1 + i % 7, [&] { ++fired; });
        EXPECT_TRUE(eq.run());
    }
    EXPECT_EQ(fired, 4000u);
    EXPECT_EQ(eq.executed(), 4000u);
}

TEST(EventQueue, OversizedCapturesSpillToHeapIntact)
{
    EventQueue eq;
    std::array<std::uint64_t, 32> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    static_assert(sizeof(big) > 72, "capture must exceed inline storage");
    eq.scheduleAt(5, [&sum, big] {
        for (std::uint64_t v : big)
            sum += v;
    });
    EXPECT_TRUE(eq.run());
    std::uint64_t want = 0;
    for (std::uint64_t v : big)
        want += v;
    EXPECT_EQ(sum, want);
}

TEST(EventQueue, ResetRetainsPoolAndReplaysIdentically)
{
    EventQueue eq;
    std::vector<Tick> first, second;
    auto load = [&](std::vector<Tick> &trace) {
        for (int i = 0; i < 300; ++i)
            eq.scheduleAt(i % 11, [&trace, &eq] {
                trace.push_back(eq.now());
            });
        EXPECT_TRUE(eq.run());
    };
    load(first);
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    load(second);
    EXPECT_EQ(first, second);
}

/**
 * Golden event-order trace: a randomized self-scheduling workload must
 * fire the identical (tick, event-id) sequence on the pooled kernel and
 * on the historical priority_queue<std::function> kernel it replaced.
 * The Rng is consumed inside callbacks, so any ordering divergence
 * cascades and the traces differ.
 */
template <class Q>
std::vector<std::pair<Tick, std::uint64_t>>
randomSelfSchedulingTrace(std::uint64_t seed)
{
    Q q;
    Rng rng(seed);
    std::vector<std::pair<Tick, std::uint64_t>> trace;
    std::uint64_t next_id = 0;
    std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
        trace.emplace_back(q.now(), id);
        if (trace.size() >= 4000)
            return;
        std::uint64_t children = rng.below(3);
        for (std::uint64_t c = 0; c < children; ++c) {
            std::uint64_t child = next_id++;
            q.scheduleAfter(rng.below(5), [&fire, child] { fire(child); });
        }
    };
    for (int i = 0; i < 64; ++i) {
        std::uint64_t id = next_id++;
        q.scheduleAt(rng.below(16), [&fire, id] { fire(id); });
    }
    EXPECT_TRUE(q.run());
    return trace;
}

TEST(EventQueue, MatchesLegacyKernelFireSequence)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 20260806ull}) {
        auto pooled = randomSelfSchedulingTrace<EventQueue>(seed);
        auto legacy = randomSelfSchedulingTrace<LegacyEventQueue>(seed);
        ASSERT_GT(pooled.size(), 64u) << "seed " << seed;
        EXPECT_EQ(pooled, legacy) << "seed " << seed;
    }
}

/** The calendar ring's span: delays below it stay in the ring, the
 * rest go to the overflow heap. */
constexpr Tick kW = EventQueue::kWheelSpan;

/** Delays that straddle the ring's span (W - 1, W, W + 1, anything up
 * to 4W), mixed with short ones so ticks collide across the tiers. */
Tick
straddlingDelay(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return kW - 1;
      case 1: return kW;
      case 2: return kW + 1;
      case 3: return rng.below(4 * kW + 1);
      default: return rng.below(5);
    }
}

/** Drop every pending event: the pooled kernel's deliberate drain, or
 * the legacy kernel's unconditional reset. */
void drainReset(EventQueue &q) { q.reset(/*drain=*/true); }
void drainReset(LegacyEventQueue &q) { q.reset(); }

/**
 * A randomized self-scheduling workload whose delays straddle the
 * calendar ring's span, so events reach both tiers and tie across
 * them. Rng draws happen inside callbacks: any divergence in firing
 * order cascades into different traces.
 */
template <class Q>
class TwoTierWorkload
{
  public:
    explicit TwoTierWorkload(std::uint64_t seed) : rng_(seed) {}

    /** Schedule @p n root events within 4W ticks of now. */
    void
    seed(int n)
    {
        for (int i = 0; i < n; ++i)
            schedule(q.now() + rng_.below(4 * kW));
    }

    /** One event in each tier: one tick ahead and 2W ticks ahead. */
    void
    seedBothTiers()
    {
        schedule(q.now() + 1);
        schedule(q.now() + 2 * kW);
    }

    Q q;
    std::vector<std::pair<Tick, std::uint64_t>> trace;

  private:
    void
    schedule(Tick when)
    {
        std::uint64_t id = next_id_++;
        q.scheduleAt(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        trace.emplace_back(q.now(), id);
        if (trace.size() >= 6000)
            return;
        for (std::uint64_t c = rng_.below(3); c > 0; --c)
            schedule(q.now() + straddlingDelay(rng_));
    }

    Rng rng_;
    std::uint64_t next_id_ = 0;
};

const std::uint64_t kTwoTierSeeds[] = {1, 7, 42, 20260806};

TEST(EventQueue, StraddlingDelaysMatchLegacyKernel)
{
    for (std::uint64_t seed : kTwoTierSeeds) {
        TwoTierWorkload<EventQueue> pooled(seed);
        TwoTierWorkload<LegacyEventQueue> legacy(seed);
        pooled.seed(64);
        legacy.seed(64);
        EXPECT_TRUE(pooled.q.run());
        EXPECT_TRUE(legacy.q.run());
        ASSERT_GT(pooled.trace.size(), 1000u) << "seed " << seed;
        EXPECT_EQ(pooled.trace, legacy.trace) << "seed " << seed;
        EXPECT_EQ(pooled.q.executed(), legacy.q.executed());
    }
}

TEST(EventQueue, OverflowEventFiresBeforeSameTickRingEvent)
{
    // A and B are scheduled at tick 0 for ticks W and W + 1, beyond the
    // ring, so they wait in the overflow heap. C and D are scheduled
    // later for the same ticks, within the ring. Each tick fires in
    // schedule order: the overflow event first.
    auto order = [](auto &q) {
        std::vector<char> fired;
        q.scheduleAt(kW, [&] { fired.push_back('A'); });
        q.scheduleAt(kW + 1, [&] { fired.push_back('B'); });
        q.scheduleAt(1, [&] {
            q.scheduleAt(kW, [&] { fired.push_back('C'); });
        });
        q.scheduleAt(2, [&] {
            q.scheduleAt(kW + 1, [&] { fired.push_back('D'); });
            q.scheduleAt(kW + 1, [&] { fired.push_back('E'); });
        });
        EXPECT_TRUE(q.run());
        return fired;
    };
    EventQueue pooled;
    LegacyEventQueue legacy;
    const std::vector<char> want = {'A', 'C', 'B', 'D', 'E'};
    EXPECT_EQ(order(pooled), want);
    EXPECT_EQ(order(legacy), want);
}

TEST(EventQueue, TickLimitStopsWithBothTiersPendingLikeLegacy)
{
    for (std::uint64_t seed : kTwoTierSeeds) {
        TwoTierWorkload<EventQueue> pooled(seed);
        TwoTierWorkload<LegacyEventQueue> legacy(seed);
        pooled.seed(64);
        legacy.seed(64);
        // Stop short of the pair seeded into each tier, every time.
        for (Tick limit = 0; limit < 40 * kW; limit += kW / 2 + 3) {
            pooled.seedBothTiers();
            legacy.seedBothTiers();
            EXPECT_FALSE(pooled.q.run(limit)) << "seed " << seed;
            EXPECT_FALSE(legacy.q.run(limit)) << "seed " << seed;
            ASSERT_EQ(pooled.q.now(), legacy.q.now()) << "seed " << seed;
            ASSERT_EQ(pooled.q.pending(), legacy.q.pending())
                << "seed " << seed << " limit " << limit;
            ASSERT_EQ(pooled.trace, legacy.trace)
                << "seed " << seed << " limit " << limit;
        }
        EXPECT_TRUE(pooled.q.run());
        EXPECT_TRUE(legacy.q.run());
        EXPECT_EQ(pooled.trace, legacy.trace) << "seed " << seed;
    }
}

TEST(EventQueue, DrainResetWithBothTiersMatchesLegacy)
{
    for (std::uint64_t seed : kTwoTierSeeds) {
        TwoTierWorkload<EventQueue> pooled(seed);
        TwoTierWorkload<LegacyEventQueue> legacy(seed);
        auto held = std::make_shared<int>(0);
        for (int round = 0; round < 3; ++round) {
            pooled.seed(64);
            legacy.seed(64);
            pooled.seedBothTiers();
            legacy.seedBothTiers();
            // Captured copies of `held` show every dropped callable is
            // destroyed, from the ring and from the overflow heap; both
            // fall beyond the tick limit below.
            pooled.q.scheduleAfter(kW - 1, [held] {});
            pooled.q.scheduleAfter(3 * kW, [held] {});
            EXPECT_FALSE(pooled.q.run(pooled.q.now() + kW / 2));
            EXPECT_FALSE(legacy.q.run(legacy.q.now() + kW / 2));
            ASSERT_EQ(pooled.q.pending(), legacy.q.pending() + 2);
            drainReset(pooled.q);
            drainReset(legacy.q);
            EXPECT_EQ(held.use_count(), 1) << "seed " << seed;
            EXPECT_TRUE(pooled.q.empty());
            EXPECT_EQ(pooled.q.pending(), 0u);
            EXPECT_EQ(pooled.q.now(), 0u);
            EXPECT_EQ(pooled.q.executed(), 0u);
            ASSERT_EQ(pooled.trace, legacy.trace) << "seed " << seed;
        }
        pooled.seed(64);
        legacy.seed(64);
        EXPECT_TRUE(pooled.q.run());
        EXPECT_TRUE(legacy.q.run());
        EXPECT_EQ(pooled.trace, legacy.trace) << "seed " << seed;
    }
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, BelowCoversValues)
{
    Rng r(9);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 800; ++i)
        ++seen[r.below(8)];
    for (int c : seen)
        EXPECT_GT(c, 0);
}

} // namespace
} // namespace wo
