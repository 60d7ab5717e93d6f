/**
 * @file
 * Campaign engine tests: deterministic per-job seed streams, flag
 * parsing, and the core guarantee — parallel campaign results are
 * bit-identical to a numThreads=1 run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sc_verifier.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

TEST(CampaignSeeds, DeterministicAndDistinct)
{
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t s = campaignJobSeed(42, i);
        EXPECT_EQ(s, campaignJobSeed(42, i)); // pure function
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u); // no stream collisions
    EXPECT_NE(campaignJobSeed(42, 0), campaignJobSeed(43, 0));
}

TEST(CampaignSeeds, IndependentOfThreadCount)
{
    for (int threads : {1, 4}) {
        Campaign c({threads, 7});
        std::vector<std::uint64_t> seeds =
            c.map<std::uint64_t>(16, [](const CampaignJob &job) {
                return job.seed;
            });
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(seeds[static_cast<std::size_t>(i)],
                      campaignJobSeed(7, i));
    }
}

/** @p consume applied to the command line {"prog", args...}. */
template <typename Consume>
auto
consumeFrom(std::vector<std::string> args, Consume consume)
{
    std::vector<char *> argv = {const_cast<char *>("prog")};
    for (std::string &a : args)
        argv.push_back(a.data());
    int argc = static_cast<int>(argv.size());
    return consume(argc, argv.data());
}

TEST(CampaignFlags, ConsumeThreadsFlag)
{
    const char *raw[] = {"prog", "--threads=5", "100"};
    char *argv[] = {const_cast<char *>(raw[0]),
                    const_cast<char *>(raw[1]),
                    const_cast<char *>(raw[2])};
    int argc = 3;
    EXPECT_EQ(consumeThreadsFlag(argc, argv), 5);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "100");

    const char *raw2[] = {"prog", "--threads", "3", "x"};
    char *argv2[] = {const_cast<char *>(raw2[0]),
                     const_cast<char *>(raw2[1]),
                     const_cast<char *>(raw2[2]),
                     const_cast<char *>(raw2[3])};
    int argc2 = 4;
    EXPECT_EQ(consumeThreadsFlag(argc2, argv2), 3);
    ASSERT_EQ(argc2, 2);
    EXPECT_STREQ(argv2[1], "x");

    int argc3 = 1;
    char *argv3[] = {const_cast<char *>(raw[0])};
    EXPECT_EQ(consumeThreadsFlag(argc3, argv3), 0);

    // --seed strips the same two forms. Malformed values of either flag
    // throw rather than run a silent default, and a bare flag cannot
    // swallow the path after it.
    auto seed = [](int &argc, char **argv) {
        return consumeSeedFlag(argc, argv, 9);
    };
    EXPECT_EQ(consumeFrom({"--seed=12", "--seed", "7"}, seed), 7u);
    EXPECT_EQ(consumeFrom({}, seed), 9u);
    for (const char *bad : {"--threads=abc", "--threads=", "--threads=4x",
                            "--threads=-1"}) {
        EXPECT_THROW(consumeFrom({bad}, consumeThreadsFlag),
                     std::invalid_argument)
            << bad;
    }
    for (const char *bad : {"--seed=abc", "--seed=12x", "--seed=",
                            "--seed=-1", "--seed=99999999999999999999"})
        EXPECT_THROW(consumeFrom({bad}, seed), std::invalid_argument) << bad;
    EXPECT_THROW(consumeFrom({"--seed", "tests/litmus"}, seed),
                 std::invalid_argument);
}

TEST(CampaignFlags, ThreadsResolutionPrefersRequest)
{
    EXPECT_EQ(campaignThreads(3), 3);
    EXPECT_GE(campaignThreads(0), 1);
}

TEST(CampaignFlags, ThreadsEnvIsOneWholeNumber)
{
    const char *prev = std::getenv("WO_THREADS");
    const std::string saved = prev ? prev : "";
    unsetenv("WO_THREADS");
    const int hardware = campaignThreads(0);
    ASSERT_GE(hardware, 1);

    setenv("WO_THREADS", "5", 1);
    EXPECT_EQ(campaignThreads(0), 5);
    EXPECT_EQ(campaignThreads(2), 2); // a request still wins
    // Malformed, negative, out-of-range or zero: the hardware count.
    for (const char *bad : {"4x", "abc", "", "-1", " 3", "0",
                            "99999999999999999999"}) {
        setenv("WO_THREADS", bad, 1);
        EXPECT_EQ(campaignThreads(0), hardware) << "'" << bad << "'";
    }

    if (prev)
        setenv("WO_THREADS", saved.c_str(), 1);
    else
        unsetenv("WO_THREADS");
}

/**
 * The tentpole guarantee: a campaign of full simulate-then-verify jobs
 * produces byte-identical results at any thread count, across seeds and
 * policies. Each job renders everything observable — final result,
 * finish tick, SC verdict — into one string, and the whole vectors must
 * match.
 */
TEST(Campaign, ParallelBitIdenticalToSerial)
{
    const std::vector<PolicyKind> policies = {
        PolicyKind::Sc, PolicyKind::Def2Drf0, PolicyKind::Def2Drf1};
    auto runJob = [&](const CampaignJob &job) {
        // 3 base seeds x policies; the workload seed comes from the
        // job's deterministic stream, never from shared state.
        PolicyKind pk = policies[static_cast<std::size_t>(
            job.index % static_cast<int>(policies.size()))];
        RandomWorkloadConfig w;
        w.numProcs = 3;
        w.sectionsPerProc = 2;
        w.seed = job.seed;
        SystemConfig cfg;
        cfg.policy = pk;
        cfg.net.seed = job.seed ^ 0xabcdef;
        System sys(randomDrf0Program(w), cfg);
        bool ok = sys.run();
        ScReport r = verifySc(sys.trace());
        return sys.result().toString() + "|" +
               std::to_string(sys.finishTick()) + "|" +
               std::to_string(ok) + "|" + r.toString();
    };

    const int jobs = 9; // 3 seeds x 3 policies
    std::vector<std::string> serial, parallel2, parallel4;
    {
        Campaign c({1, 99});
        serial = c.map<std::string>(jobs, runJob);
    }
    {
        Campaign c({2, 99});
        parallel2 = c.map<std::string>(jobs, runJob);
    }
    {
        Campaign c({4, 99});
        parallel4 = c.map<std::string>(jobs, runJob);
    }
    EXPECT_EQ(parallel2, serial);
    EXPECT_EQ(parallel4, serial);
}

TEST(Campaign, ReduceMergesInIndexOrder)
{
    // A non-commutative merge (string concat) exposes any ordering
    // nondeterminism immediately.
    for (int threads : {1, 4}) {
        Campaign c({threads, 1});
        std::string merged = c.reduce<std::string, std::string>(
            26,
            [](const CampaignJob &job) {
                return std::string(1, static_cast<char>('a' + job.index));
            },
            std::string(),
            [](std::string &acc, const std::string &one) { acc += one; });
        EXPECT_EQ(merged, "abcdefghijklmnopqrstuvwxyz");
    }
}

} // namespace
} // namespace wo
