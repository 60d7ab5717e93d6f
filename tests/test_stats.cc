/**
 * @file
 * Unit tests for the statistics registry.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "sim/stats.hh"

namespace wo {
namespace {

TEST(StatSet, CountersStartAtZero)
{
    StatSet s;
    EXPECT_EQ(s.get("nope"), 0u);
    EXPECT_FALSE(s.has("nope"));
}

TEST(StatSet, IncAccumulates)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 4);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_TRUE(s.has("a"));
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.inc("a", 10);
    s.set("a", 3);
    EXPECT_EQ(s.get("a"), 3u);
}

TEST(StatSet, MaxOfKeepsMaximum)
{
    StatSet s;
    s.maxOf("m", 5);
    s.maxOf("m", 2);
    s.maxOf("m", 9);
    EXPECT_EQ(s.get("m"), 9u);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.inc("x", 1);
    a.inc("y", 2);
    b.inc("y", 3);
    b.inc("z", 4);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 1u);
    EXPECT_EQ(a.get("y"), 5u);
    EXPECT_EQ(a.get("z"), 4u);
}

TEST(StatSet, MergeCombinesMaxKindWithMax)
{
    // Regression: merge() used to sum every shared name, so high-water
    // marks (cacheN.counter_max) merged across campaign shards reported
    // a level no single run ever reached.
    StatSet a, b, c;
    a.maxOf("cache0.counter_max", 5);
    b.maxOf("cache0.counter_max", 9);
    c.maxOf("cache0.counter_max", 3);
    a.merge(b);
    EXPECT_EQ(a.get("cache0.counter_max"), 9u);
    a.merge(c);
    EXPECT_EQ(a.get("cache0.counter_max"), 9u);
}

TEST(StatSet, MergeAdoptsKindForStatsAbsentOnThisSide)
{
    // A max-kind stat absent locally must arrive as max-kind, so a later
    // merge still takes the maximum instead of summing.
    StatSet a, b, c;
    b.maxOf("m", 7);
    c.maxOf("m", 5);
    a.merge(b);
    a.merge(c);
    EXPECT_EQ(a.get("m"), 7u);
}

TEST(StatSet, MergeMixedKindsInOnePass)
{
    StatSet a, b;
    a.inc("events", 10);
    a.maxOf("depth", 4);
    b.inc("events", 3);
    b.maxOf("depth", 2);
    a.merge(b);
    EXPECT_EQ(a.get("events"), 13u);
    EXPECT_EQ(a.get("depth"), 4u);
}

TEST(StatSet, HandlePathMatchesStringPath)
{
    // Components bump interned handles on the hot path; harnesses use
    // names. Both must produce identical reported state.
    StatSet via_handle, via_string;

    StatHandle hits = via_handle.handle("cache.hits");
    StatHandle depth =
        via_handle.handle("cache.depth", StatSet::Kind::Max);
    via_handle.inc(hits);
    via_handle.inc(hits, 4);
    via_handle.maxOf(depth, 6);
    via_handle.maxOf(depth, 2);

    via_string.inc("cache.hits");
    via_string.inc("cache.hits", 4);
    via_string.maxOf("cache.depth", 6);
    via_string.maxOf("cache.depth", 2);

    EXPECT_EQ(via_handle.all(), via_string.all());
    std::ostringstream jh, js;
    via_handle.dumpJson(jh);
    via_string.dumpJson(js);
    EXPECT_EQ(jh.str(), js.str());

    // And the two paths interoperate on one set: same name, same slot.
    via_handle.inc("cache.hits", 5);
    EXPECT_EQ(via_handle.get("cache.hits"), 10u);
}

TEST(StatSet, HandleIsIdempotentAndReservationInvisible)
{
    StatSet s;
    StatHandle h1 = s.handle("x");
    StatHandle h2 = s.handle("x");
    // Interning alone must not surface the stat in any report.
    EXPECT_FALSE(s.has("x"));
    EXPECT_TRUE(s.all().empty());
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{}");

    s.inc(h1, 2);
    s.inc(h2, 3);
    EXPECT_TRUE(s.has("x"));
    EXPECT_EQ(s.get("x"), 5u);
}

TEST(StatSet, DefaultHandleIsInvalid)
{
    StatHandle h;
    EXPECT_FALSE(h.valid());
    StatSet s;
    EXPECT_TRUE(s.handle("a").valid());
}

TEST(StatSet, DumpFiltersByPrefix)
{
    StatSet s;
    s.inc("cache.hits", 7);
    s.inc("cache.misses", 3);
    s.inc("net.msgs", 11);
    std::ostringstream oss;
    s.dump(oss, "cache.");
    std::string out = oss.str();
    EXPECT_NE(out.find("cache.hits"), std::string::npos);
    EXPECT_NE(out.find("cache.misses"), std::string::npos);
    EXPECT_EQ(out.find("net.msgs"), std::string::npos);
}

TEST(StatSet, DumpJsonEmitsSortedWellFormedObject)
{
    StatSet s;
    s.inc("net.msgs", 11);
    s.inc("cache.hits", 7);
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{\n  \"cache.hits\": 7,\n  \"net.msgs\": 11\n}");
}

TEST(StatSet, DumpJsonEmptyIsEmptyObject)
{
    StatSet s;
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{}");

    // A filter matching nothing also yields the empty object.
    s.inc("a.b", 1);
    std::ostringstream oss2;
    s.dumpJson(oss2, "zzz.");
    EXPECT_EQ(oss2.str(), "{}");
}

TEST(StatSet, DumpJsonFiltersByPrefixAndIndents)
{
    StatSet s;
    s.inc("cache.hits", 7);
    s.inc("net.msgs", 11);
    std::ostringstream oss;
    s.dumpJson(oss, "cache.", 2);
    EXPECT_EQ(oss.str(), "{\n    \"cache.hits\": 7\n  }");
}

TEST(StatSet, DumpJsonEscapesNameMetacharacters)
{
    StatSet s;
    s.inc("we\"ird\\name", 1);
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{\n  \"we\\\"ird\\\\name\": 1\n}");
}

TEST(StatSet, ResetZeroesAndRevertsToUntouched)
{
    StatSet s;
    s.inc("a", 7);
    s.maxOf("m", 9);
    s.reset();
    // Reset stats are invisible everywhere, exactly like a fresh set.
    EXPECT_FALSE(s.has("a"));
    EXPECT_FALSE(s.has("m"));
    EXPECT_EQ(s.get("a"), 0u);
    EXPECT_TRUE(s.all().empty());
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{}");
}

TEST(StatSet, ResetKeepsHandlesValidAndKinds)
{
    // The pool's whole point: components intern handles once at
    // construction and keep bumping them across System resets. The
    // handles must stay bound to their slots, with kinds intact.
    StatSet s;
    StatHandle hits = s.handle("cache.hits");
    StatHandle depth = s.handle("cache.depth", StatSet::Kind::Max);
    s.inc(hits, 5);
    s.maxOf(depth, 8);

    s.reset();
    s.inc(hits, 2);
    s.maxOf(depth, 3);
    s.maxOf(depth, 1);
    EXPECT_EQ(s.get("cache.hits"), 2u);  // not 7: reset zeroed it
    EXPECT_EQ(s.get("cache.depth"), 3u); // max-kind survived reset

    // Post-reset state is indistinguishable from a fresh set driven
    // through the same operations.
    StatSet fresh;
    fresh.inc("cache.hits", 2);
    fresh.maxOf("cache.depth", 3);
    fresh.maxOf("cache.depth", 1);
    EXPECT_EQ(s.all(), fresh.all());
    std::ostringstream a, b;
    s.dumpJson(a);
    fresh.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(StatSet, ResetThenMergeMatchesFresh)
{
    // Campaign merge after a reset must behave as if the set were new
    // (kind adoption included).
    StatSet s, other;
    s.maxOf("m", 100);
    s.reset();
    other.maxOf("m", 4);
    s.merge(other);
    EXPECT_EQ(s.get("m"), 4u); // 100 must not survive the reset
}

TEST(StatSet, AccumulateMatchesMergeOverResetRuns)
{
    // A running total fed by successive reset() runs of one StatSet
    // must equal merging every run by name: including a slot interned
    // mid-sequence, a Max-kind slot, a Sum slot upgraded to Max later,
    // and slots left untouched in some runs.
    StatSet run, total, merged;
    StatHandle hits = run.handle("hits");
    run.handle("reserved"); // interned, never bumped
    auto fold = [&] {
        total.accumulate(run);
        merged.merge(run);
        EXPECT_EQ(total.all(), merged.all());
        run.reset();
    };

    run.inc(hits, 3);
    run.maxOf("depth", 7);
    fold();

    run.inc(hits, 2);
    run.inc("late", 5); // new slot; "depth" untouched this run
    fold();

    run.maxOf("depth", 4); // below the running max
    run.inc("upgraded", 6);
    fold();

    run.maxOf("upgraded", 2); // now Max-kind: combines with max
    run.inc(hits);            // "late" untouched this run
    fold();

    EXPECT_EQ(total.get("hits"), 6u);
    EXPECT_EQ(total.get("depth"), 7u);
    EXPECT_EQ(total.get("late"), 5u);
    EXPECT_EQ(total.get("upgraded"), 6u);
    EXPECT_FALSE(total.has("reserved"));

    // Kinds carried over too: a later by-name merge combines alike.
    StatSet more;
    more.inc("depth", 9);
    more.inc("upgraded", 1);
    total.merge(more);
    merged.merge(more);
    EXPECT_EQ(total.all(), merged.all());
    EXPECT_EQ(total.get("depth"), 9u);
    EXPECT_EQ(total.get("upgraded"), 6u);
}

TEST(StatSet, AccumulateRejectsAStatSetItDoesNotFollow)
{
    StatSet a, b, total;
    a.inc("x");
    a.inc("y");
    b.inc("y");
    total.accumulate(a);
    EXPECT_THROW(total.accumulate(b), std::logic_error); // fewer slots
    b.inc("z");
    EXPECT_THROW(total.accumulate(b), std::logic_error); // other layout
    EXPECT_EQ(total.get("x"), 1u);
}

TEST(StatSet, ClearEmpties)
{
    StatSet s;
    s.inc("a");
    s.clear();
    EXPECT_FALSE(s.has("a"));
    EXPECT_TRUE(s.all().empty());
}

} // namespace
} // namespace wo
