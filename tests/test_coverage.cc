/**
 * @file
 * Coverage-map lifecycle tests: recording, merge algebra, the
 * thread-local CoverageScope, heatmap/gap completeness against the
 * protocol transition tables, standing-report round-trips and diffs,
 * and the runner-level invariants (pool on == off, threads 1 == 4,
 * coverage survives a pooled System::reuseFor).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <string>

#include "coherence/protocol.hh"
#include "cpu/program_builder.hh"
#include "litmus/compiler.hh"
#include "litmus/parser.hh"
#include "litmus/runner.hh"
#include "obs/coverage.hh"
#include "obs/coverage_report.hh"
#include "obs/trace_sink.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

namespace wo {
namespace {

const ProtocolKind kProtocols[] = {
    ProtocolKind::Msi,
    ProtocolKind::Mesi,
    ProtocolKind::Moesi,
    ProtocolKind::Mesif,
};

/** Canonical rendering of a map. */
std::string
render(const CoverageMap &map)
{
    StandingCoverage st;
    st.addCoverage(map);
    std::ostringstream os;
    st.write(os);
    return os.str();
}

/** Hit every legal transition of @p k exactly once. */
void
hitAllLegal(CoverageMap &map, ProtocolKind k)
{
    const CoherenceProtocol &proto = CoherenceProtocol::get(k);
    for (int s = 0; s < kNumLineStates; ++s) {
        for (int e = 0; e < kNumLineEvents; ++e) {
            if (proto.legal(static_cast<LineState>(s),
                            static_cast<LineEvent>(e))) {
                map.hitTransition(k, static_cast<LineState>(s),
                                  static_cast<LineEvent>(e));
            }
        }
    }
}

int
legalCount(ProtocolKind k)
{
    const CoherenceProtocol &proto = CoherenceProtocol::get(k);
    int n = 0;
    for (int s = 0; s < kNumLineStates; ++s) {
        for (int e = 0; e < kNumLineEvents; ++e) {
            n += proto.legal(static_cast<LineState>(s),
                             static_cast<LineEvent>(e))
                     ? 1
                     : 0;
        }
    }
    return n;
}

TEST(CoverageMap, RecordsTransitionsAndNamedKeys)
{
    CoverageMap map;

    map.hitTransition(ProtocolKind::Msi, LineState::Shared,
                      LineEvent::Load);
    map.hitTransition(ProtocolKind::Msi, LineState::Shared,
                      LineEvent::Load);
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Shared,
                                  LineEvent::Load),
              2u);
    EXPECT_EQ(map.transitionCount(ProtocolKind::Mesi, LineState::Shared,
                                  LineEvent::Load),
              0u);

    for (int i = 0; i < 3; ++i)
        map.hitStall(StallReason::Fence);
    map.hitMissStall(MissStall::ReserveBound);
    map.hitBucket(LatencyKind::Msg, 7);
    EXPECT_EQ(map.stallCount(StallReason::Fence), 3u);
    EXPECT_EQ(map.stallCount(StallReason::Dependency), 0u);
    EXPECT_EQ(map.missStallCount(MissStall::ReserveBound), 1u);
    EXPECT_EQ(map.bucketCount(LatencyKind::Msg, 7), 1u);
    EXPECT_EQ(map.bucketCount(LatencyKind::IssueGp, 7), 0u);

    const std::string doc = render(map);
    EXPECT_NE(doc.find("trans\tmsi\tS\tLoad\t2\n"), std::string::npos);
    EXPECT_NE(doc.find("stall\tproc_stall/fence\t3\n"), std::string::npos);
    EXPECT_NE(doc.find("stall\tmiss_stalls_total/stalled_by_reserve_bound"
                       "\t1\n"),
              std::string::npos);
    EXPECT_NE(doc.find("bucket\tlat_msg/bucket_07\t1\n"),
              std::string::npos);
}

TEST(CoverageMap, HitFamilyWritesEveryRowUnhitFamilyNone)
{
    // One hit in a family writes all of that family's rows, the unhit
    // ones at 0 (the gaps wo-cover shows); an unhit family writes none.
    CoverageMap map;
    map.hitBucket(LatencyKind::IssueGp, 3);
    map.hitMissStall(MissStall::Eviction);
    StandingCoverage st;
    st.addCoverage(map);

    ASSERT_EQ(st.buckets.size(),
              static_cast<std::size_t>(kLatencyBuckets));
    EXPECT_EQ(st.buckets.at("lat_issue_gp/bucket_03"), 1u);
    EXPECT_EQ(st.buckets.at("lat_issue_gp/bucket_00"), 0u);
    EXPECT_EQ(st.buckets.at("lat_issue_gp/bucket_33"), 0u);
    EXPECT_EQ(st.buckets.count("lat_msg/bucket_03"), 0u);

    ASSERT_EQ(st.stalls.size(), static_cast<std::size_t>(kNumMissStalls));
    EXPECT_EQ(st.stalls.at("miss_stalls_total/stalled_by_eviction"), 1u);
    EXPECT_EQ(st.stalls.at("miss_stalls_total/stalled_by_reserve_bound"),
              0u);
    EXPECT_EQ(st.stalls.at("miss_stalls_total/stalled_by_mshr_conflict"),
              0u);
    EXPECT_TRUE(st.transitions.empty());

    // An all-zero map writes nothing at all.
    StandingCoverage none;
    none.addCoverage(CoverageMap());
    EXPECT_TRUE(none.stalls.empty());
    EXPECT_TRUE(none.buckets.empty());
}

TEST(CoverageMap, MergeIsAssociativeAndCommutative)
{
    auto mk = [](int variant) {
        CoverageMap m;
        if (variant == 0) {
            m.hitTransition(ProtocolKind::Msi, LineState::Invalid,
                            LineEvent::Store);
            m.hitStall(StallReason::Fence);
            m.hitMissStall(MissStall::Eviction);
        } else if (variant == 1) {
            m.hitTransition(ProtocolKind::Msi, LineState::Invalid,
                            LineEvent::Store);
            m.hitTransition(ProtocolKind::Mesif, LineState::Forward,
                            LineEvent::Load);
            m.hitStall(StallReason::Dependency);
            m.hitStall(StallReason::Dependency);
        } else {
            for (int i = 0; i < 4; ++i)
                m.hitStall(StallReason::Fence);
            m.hitBucket(LatencyKind::Msg, 7);
            m.hitBucket(LatencyKind::Msg, 1);
        }
        return m;
    };

    // (a + b) + c == a + (b + c)
    CoverageMap left = mk(0);
    left.merge(mk(1));
    left.merge(mk(2));
    CoverageMap bc = mk(1);
    bc.merge(mk(2));
    CoverageMap right = mk(0);
    right.merge(bc);
    EXPECT_EQ(render(left), render(right));

    // a + b == b + a
    CoverageMap ab = mk(0);
    ab.merge(mk(2));
    CoverageMap ba = mk(2);
    ba.merge(mk(0));
    EXPECT_EQ(render(ab), render(ba));

    // Counts sum, and the unhit rows of a hit family stay at 0.
    const std::string doc = render(left);
    EXPECT_NE(doc.find("stall\tproc_stall/fence\t5\n"), std::string::npos);
    EXPECT_NE(doc.find("stall\tproc_stall/dependency\t2\n"),
              std::string::npos);
    EXPECT_NE(doc.find("stall\tproc_stall/same_addr\t0\n"),
              std::string::npos);
    EXPECT_NE(doc.find("bucket\tlat_msg/bucket_07\t1\n"),
              std::string::npos);
    EXPECT_NE(doc.find("bucket\tlat_msg/bucket_00\t0\n"),
              std::string::npos);
}

TEST(CoverageScope, InstallsAndRestoresNested)
{
    EXPECT_EQ(activeCoverage(), nullptr);
    CoverageMap outer, inner;
    {
        CoverageScope s1(&outer);
        EXPECT_EQ(activeCoverage(), &outer);
        {
            CoverageScope s2(&inner);
            EXPECT_EQ(activeCoverage(), &inner);
            // A null scope disables coverage for its extent.
            CoverageScope s3(nullptr);
            EXPECT_EQ(activeCoverage(), nullptr);
        }
        EXPECT_EQ(activeCoverage(), &outer);
    }
    EXPECT_EQ(activeCoverage(), nullptr);
}

TEST(CoverageScope, ProtocolLookupRecordsOnlyWhenInstalled)
{
    const CoherenceProtocol &msi =
        CoherenceProtocol::get(ProtocolKind::Msi);
    CoverageMap map;
    msi.on(LineState::Shared, LineEvent::Load); // no scope: not counted
    {
        CoverageScope scope(&map);
        msi.on(LineState::Shared, LineEvent::Load);
        msi.on(LineState::Modified, LineEvent::Store);
    }
    msi.on(LineState::Shared, LineEvent::Load); // after scope: no count
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Shared,
                                  LineEvent::Load),
              1u);
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Modified,
                                  LineEvent::Store),
              1u);
}

TEST(CoverageHeatmap, FullSyntheticMapHasNoGaps)
{
    CoverageMap map;
    for (ProtocolKind k : kProtocols)
        hitAllLegal(map, k);
    StandingCoverage st;
    st.addCoverage(map);
    CoverageGaps gaps = findGaps(st);
    EXPECT_TRUE(gaps.unhitTransitions.empty())
        << gaps.unhitTransitions.front();

    std::ostringstream os;
    renderHeatmap(os, st);
    // Every protocol reports full coverage against its own table's
    // legal-pair count (the same enumeration test_protocol_table pins).
    for (ProtocolKind k : kProtocols) {
        std::string name = toString(k);
        for (char &c : name)
            c = static_cast<char>(std::toupper(c));
        std::string want = name + ": " + std::to_string(legalCount(k)) +
                           "/" + std::to_string(legalCount(k)) +
                           " legal transitions hit";
        EXPECT_NE(os.str().find(want), std::string::npos) << want;
    }
}

TEST(CoverageHeatmap, TouchedProtocolReportsItsUnhitTransitions)
{
    CoverageMap map;
    map.hitTransition(ProtocolKind::Mesif, LineState::Invalid,
                      LineEvent::Load);
    StandingCoverage st;
    st.addCoverage(map);
    CoverageGaps gaps = findGaps(st);
    // Only MESIF contributes gaps (the untouched protocols are "not
    // exercised", not 72 missing transitions).
    EXPECT_EQ(gaps.unhitTransitions.size(),
              static_cast<std::size_t>(legalCount(ProtocolKind::Mesif)) -
                  1u);
    for (const std::string &g : gaps.unhitTransitions)
        EXPECT_EQ(g.rfind("MESIF:", 0), 0u) << g;
}

TEST(StandingCoverage, WriteReadRoundTripsByteIdentical)
{
    CoverageMap map;
    map.hitTransition(ProtocolKind::Moesi, LineState::Owned,
                      LineEvent::FwdGetS);
    for (int i = 0; i < 7; ++i)
        map.hitMissStall(MissStall::Eviction);
    map.hitBucket(LatencyKind::IssueGp, 4);
    map.hitStall(StallReason::Dependency); // proc_stall/fence row at 0

    StandingCoverage st;
    st.runs = 1;
    st.meta.insert({"seeds", "5"});
    st.addMachine("bus", "msi", 1);
    st.addMachine("net-u", "none", 0);
    st.addCoverage(map);
    st.outcomes[{"sb", "Relaxed", "bus", "P0:r0=0 P1:r0=0"}] = 5;
    st.outcomes[{"sb", "SC", "bus", "P0:r0=0"}] = 0;

    std::ostringstream os1;
    st.write(os1);
    std::istringstream in(os1.str());
    StandingCoverage back = StandingCoverage::read(in);
    std::ostringstream os2;
    back.write(os2);
    EXPECT_EQ(os1.str(), os2.str());
    EXPECT_EQ(back.runs, 1u);
    EXPECT_EQ(back.machines.at("bus").protocol, "msi");
    EXPECT_EQ(back.machines.at("net-u").cacheLevels, 0);
    EXPECT_EQ(back.stalls.at("proc_stall/fence"), 0u);
    EXPECT_EQ(back.outcomes.at({"sb", "SC", "bus", "P0:r0=0"}), 0u);
}

TEST(StandingCoverage, ReadRejectsMalformedDocuments)
{
    auto parse = [](const std::string &doc) {
        std::istringstream in(doc);
        return StandingCoverage::read(in);
    };
    EXPECT_THROW(parse("not a report\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t2\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\ntrans\tmsi\tS\n"),
                 std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\nstall\tk\tnot-a-number\n"),
                 std::runtime_error);
    // Counts are digits only: no sign, no blanks, no overflow.
    EXPECT_THROW(parse("wocover\t1\nmeta\truns\t-3\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\nmeta\truns\t+3\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\nmeta\truns\t 3\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\nstall\tk\t18446744073709551616\n"),
                 std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\nmachine\tm\tmsi\t4294967298\n"),
                 std::runtime_error);
    EXPECT_EQ(parse("wocover\t1\nstall\tk\t18446744073709551615\n")
                  .stalls.at("k"),
              18446744073709551615ull);
    // Transition states and events come from one fixed set; an unknown
    // protocol is kept for the heatmap to list.
    EXPECT_THROW(parse("wocover\t1\ntrans\tmsi\tQ\tLoad\t1\n"),
                 std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\ntrans\tmsi\tS\tLoadd\t1\n"),
                 std::runtime_error);
    EXPECT_EQ(parse("wocover\t1\ntrans\tmsix\tS\tLoad\t1\n")
                  .transitions.at({"msix", "S", "Load"}),
              1u);
}

TEST(StandingCoverage, MergeSumsCountsAndRuns)
{
    CoverageMap a, b;
    a.hitTransition(ProtocolKind::Msi, LineState::Shared,
                    LineEvent::Load);
    b.hitTransition(ProtocolKind::Msi, LineState::Shared,
                    LineEvent::Load);
    b.hitStall(StallReason::Fence);
    b.hitStall(StallReason::Fence);

    StandingCoverage s1, s2;
    s1.runs = 1;
    s1.addCoverage(a);
    s2.runs = 1;
    s2.addCoverage(b);
    s1.mergeFrom(s2);
    EXPECT_EQ(s1.runs, 2u);
    EXPECT_EQ(s1.transitions.at({"msi", "S", "Load"}), 2u);
    EXPECT_EQ(s1.stalls.at("proc_stall/fence"), 2u);
}

TEST(CoverageDiff, GatesRegressionsButNotBucketLosses)
{
    StandingCoverage oldRep, newRep;
    oldRep.transitions[{"msi", "S", "Evict"}] = 5;   // -> absent
    oldRep.stalls["proc_stall/fence"] = 3;           // -> 0
    oldRep.buckets["lat_msg/bucket_02"] = 9;         // -> 0 (info only)
    oldRep.outcomes[{"sb", "SC", "bus", "P0:r0=1"}] = 1; // unchanged
    newRep.stalls["proc_stall/fence"] = 0;
    newRep.buckets["lat_msg/bucket_02"] = 0;
    newRep.outcomes[{"sb", "SC", "bus", "P0:r0=1"}] = 4;
    newRep.outcomes[{"sb", "SC", "bus", "P0:r0=0"}] = 2; // gain

    CoverageDiff d = diffStanding(oldRep, newRep);
    EXPECT_TRUE(d.hasRegressions());
    EXPECT_EQ(d.regressions.size(), 2u);
    EXPECT_EQ(d.bucketLosses.size(), 1u);
    EXPECT_EQ(d.gains.size(), 1u);

    // Identical reports: clean diff.
    CoverageDiff self = diffStanding(oldRep, oldRep);
    EXPECT_FALSE(self.hasRegressions());
    EXPECT_TRUE(self.bucketLosses.empty());
    EXPECT_TRUE(self.gains.empty());
}

TEST(CoverageSystem, MapSurvivesPooledStyleResetAndDoubles)
{
    MultiProgram mp("dekker");
    ProgramBuilder p0, p1;
    p0.store(0, 1).load(0, 1).halt();
    p1.store(1, 1).load(0, 0).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());

    SystemConfig cfg;
    cfg.policy = PolicyKind::Sc;
    CoverageMap map;
    cfg.coverage = &map;

    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    std::string once = render(map);
    ASSERT_NE(once.find("trans\t"), std::string::npos);

    // Pooled-style reuse replays the job bit-identically and keeps
    // recording into the same campaign-owned map: exactly doubled.
    ASSERT_TRUE(sys.reuseFor(mp, cfg));
    ASSERT_TRUE(sys.run());

    // Doubling the single-run report must reproduce the two-run map.
    std::istringstream in(once);
    StandingCoverage st1 = StandingCoverage::read(in);
    StandingCoverage sum = st1;
    sum.mergeFrom(st1);
    std::ostringstream expect;
    sum.write(expect);
    EXPECT_EQ(render(map), expect.str());
}

TEST(CoverageSystem, RowsAgreeWithTheStatsMirror)
{
    // A traced run keeps every latency sample and miss stall in the
    // StatSet too, so each coverage row must equal its stats: this pins
    // the enum-to-row-name mapping of every family. Overlapping stores
    // to three lines of bus-cap's one two-way set produce eviction
    // stalls.
    MultiProgram mp("set-thrash");
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        for (int round = 0; round < 3; ++round) {
            b.store(0, round + 1)
                .store(2, round + 2)
                .store(4, round + 3)
                .load(0, 2);
        }
        b.halt();
        mp.addProgram(b.build());
    }
    TraceSink buf;
    CoverageMap map;
    SystemConfig cfg =
        machineOrThrow("bus-cap").config(PolicyKind::Def2Drf0, 3);
    cfg.traceSink = &buf;
    cfg.coverage = &map;
    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    StandingCoverage st;
    st.addCoverage(map);
    const StatSet &stats = sys.stats();

    auto statSum = [&](const std::string &suffix) {
        std::uint64_t sum = 0;
        for (const auto &[name, n] : stats.all()) {
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                sum += n;
        }
        return sum;
    };
    auto rowOf = [](const std::map<std::string, std::uint64_t> &rows,
                    const std::string &key) {
        auto it = rows.find(key);
        return it == rows.end() ? 0 : it->second;
    };

    for (int b = 0; b < kLatencyBuckets; ++b) {
        const std::string nn = (b < 10 ? "0" : "") + std::to_string(b);
        std::uint64_t gp = 0;
        for (ProcId p = 0; p < mp.numProcs(); ++p) {
            gp += stats.get("proc" + std::to_string(p) +
                            ".lat_issue_gp.bucket_" + nn);
        }
        EXPECT_EQ(rowOf(st.buckets, "lat_issue_gp/bucket_" + nn), gp) << nn;
        EXPECT_EQ(rowOf(st.buckets, "lat_msg/bucket_" + nn),
                  stats.get(sys.interconnect().msgLatencyHistogram()
                                .prefix() +
                            ".bucket_" + nn))
            << nn;
    }
    for (int m = 0; m < kNumMissStalls; ++m) {
        const std::string reason =
            std::string("stalled_by_") + toString(static_cast<MissStall>(m));
        EXPECT_EQ(rowOf(st.stalls, "miss_stalls_total/" + reason),
                  statSum("." + reason))
            << reason;
    }
    // Not vacuous: every family was exercised, evictions included.
    EXPECT_GT(statSum(".stalled_by_eviction"), 0u);
    EXPECT_GT(statSum(".lat_issue_gp.count"), 0u);
    EXPECT_GT(statSum(".lat_msg.count"), 0u);
}

TEST(CoverageRunner, PoolAndThreadCountDoNotChangeCoverage)
{
    using namespace litmus_dsl;
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
    opt.policies = {PolicyKind::Sc, PolicyKind::Relaxed};

    // Each thread count spreads the jobs over different pooled Systems.
    std::vector<std::string> docs;
    for (int threads : {1, 4}) {
        opt.threads = threads;
        CorpusReport rep = runCorpus(corpus, opt);
        std::ostringstream os;
        standingCoverage(rep).write(os);
        docs.push_back(os.str());
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_NE(docs[0].find("trans\tmsi\t"), std::string::npos);
    EXPECT_NE(docs[0].find("outcome\tsb\t"), std::string::npos);
}

TEST(CoverageRunner, OutcomeRowsAreHistogramCountsOrZero)
{
    // Every outcome row is its cell's histogram count, or 0 for a key
    // the cell's bounding model allows but no run produced. A cell that
    // cannot run (Def2-DRF0 on the uncached net-u: runs 0) writes no
    // row, and neither does a corpus run without the axiom stage.
    using namespace litmus_dsl;
    const std::vector<CompiledLitmus> corpus = {compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus"))};

    RunnerOptions opt;
    opt.seeds = 3;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc, PolicyKind::Def2Drf0,
                    PolicyKind::Relaxed};
    CorpusReport rep = runCorpus(corpus, opt);
    const TestReport &tr = rep.tests.at(0);
    ASSERT_TRUE(tr.axiomChecked);

    std::map<std::array<std::string, 4>, std::uint64_t> want;
    int unrunnable = 0;
    for (const CellReport &cell : tr.cells) {
        if (cell.runs == 0) {
            EXPECT_EQ(cell.policy, PolicyKind::Def2Drf0);
            EXPECT_EQ(cell.variant, "net-u");
            ++unrunnable;
            continue;
        }
        const std::string policy = toString(cell.policy);
        for (const ModelAllowedReport &mar : tr.axiomAllowed) {
            if (mar.model == cell.axiomModel) {
                for (const std::string &key : mar.outcomes)
                    want[{"sb", policy, cell.variant, key}] = 0;
            }
        }
        for (const auto &[key, count] : cell.histogram)
            want[{"sb", policy, cell.variant, key}] =
                static_cast<std::uint64_t>(count);
    }
    EXPECT_EQ(unrunnable, 1);
    // Both kinds of row occur, so the equality below pins each.
    EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                            [](const auto &row) { return row.second == 0; }));
    EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                            [](const auto &row) { return row.second > 0; }));
    EXPECT_EQ(standingCoverage(rep).outcomes, want);

    opt.axiomCheck = false;
    StandingCoverage off = standingCoverage(runCorpus(corpus, opt));
    EXPECT_TRUE(off.outcomes.empty());
    EXPECT_FALSE(off.transitions.empty());
}

} // namespace
} // namespace wo
