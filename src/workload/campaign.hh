/**
 * @file
 * Campaign: run many independent simulation / verification jobs across
 * hardware threads with results bit-identical to a serial run.
 *
 * A campaign is a fan of numbered jobs — seed sweeps, config sweeps,
 * litmus enumerations, per-execution SC verifications, DRF0 checks. Each
 * job receives its index and a deterministic RNG seed derived from
 * (baseSeed, index) only, never from shared state or scheduling order;
 * results land in a vector slot per job and are merged in index order.
 * Running with N threads therefore produces exactly the bytes a
 * numThreads=1 run produces.
 */

#ifndef WO_WORKLOAD_CAMPAIGN_HH
#define WO_WORKLOAD_CAMPAIGN_HH

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/drf0_checker.hh"
#include "parallel/thread_pool.hh"
#include "system/system.hh"

namespace wo {

/** One unit of campaign work. */
struct CampaignJob
{
    /** Job number in [0, numJobs). */
    int index = 0;

    /** This job's private RNG seed: a splitmix64 mix of (baseSeed,
     * index). Equal for equal inputs on every platform and thread
     * count. */
    std::uint64_t seed = 0;

    /** Participant running this job, in [0, Campaign::numThreads()].
     * No two jobs of one map() call run on the same worker at once, so
     * per-worker state indexed by it needs no lock. Which jobs land on
     * which worker depends on scheduling: results must not. */
    int worker = 0;
};

/** Deterministic per-job seed stream: seed = f(baseSeed, jobIndex). */
std::uint64_t campaignJobSeed(std::uint64_t baseSeed, int jobIndex);

/**
 * Resolve a thread count: @p requested if positive, else the WO_THREADS
 * environment variable if it is one whole positive decimal number (as
 * parseFlagValue reads it: "4x" and "-1" do not count), else one thread
 * per hardware thread. Always at least 1.
 */
int campaignThreads(int requested = 0);

/**
 * @p text as one whole non-negative decimal number: the one parser for
 * every numeric command-line flag. Throws std::invalid_argument naming
 * @p flag on anything else ("", "abc", "12x", "-1", out of range).
 */
template <typename T>
T
parseFlagValue(const char *flag, const char *text)
{
    T value{};
    const char *last = text + std::strlen(text);
    auto [end, ec] = std::from_chars(text, last, value);
    if (ec != std::errc() || end != last || text == last || value < T{}) {
        throw std::invalid_argument(std::string("bad ") + flag +
                                    " value '" + text + "'");
    }
    return value;
}

/**
 * Strip a `--threads=N` (or `--threads N`) argument from argv, shifting
 * the remaining arguments down and updating argc.
 *
 * @return N, or 0 if the flag was absent or N is 0 (callers then fall
 *         back to campaignThreads(0)'s env/hardware resolution).
 * @throws std::invalid_argument unless N is a whole non-negative decimal
 *         number ("abc", "", "4x" and "-1" are rejected).
 */
int consumeThreadsFlag(int &argc, char **argv);

/**
 * Strip a `--seed=S` (or `--seed S`) argument from argv, shifting the
 * remaining arguments down and updating argc.
 *
 * @return S, or @p fallback if the flag was absent.
 * @throws std::invalid_argument unless S is a whole unsigned 64-bit
 *         decimal number (so a bare `--seed` cannot swallow a path).
 */
std::uint64_t consumeSeedFlag(int &argc, char **argv,
                              std::uint64_t fallback = 1);

/**
 * Memoized DRF0 verdicts, keyed by program content.
 *
 * Campaign-style workloads check the same compiled program repeatedly —
 * across corpus passes, policy sweeps, and duplicate litmus bodies that
 * differ only in name or clause. checkProgram()'s verdict depends only
 * on the program's content, so one check per distinct contentHash()
 * suffices. Thread-safe; the check itself runs outside the lock.
 */
class Drf0Memo
{
  public:
    /**
     * checkProgram() with memoization: the first call for a program
     * runs the check, later calls return the stored report (same
     * witness, same races).
     */
    // Args 2-3 kept only for bench/e2e; deleted in ROADMAP item 6 step 2.
    Drf0ProgramReport check(const MultiProgram &program, int, std::uint64_t);

    /** Calls answered from the memo. */
    std::uint64_t hits() const;

    /** Calls that ran the check. */
    std::uint64_t misses() const;

  private:
    mutable std::mutex mu_;
    std::map<std::uint64_t, Drf0ProgramReport> memo_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * A cache of constructed System instances keyed by campaign cell (by
 * convention "machine-name/policy"), so successive jobs of one cell pay
 * a reset instead of a rebuild.
 *
 * acquire() hands back the cached instance — reset under the job's
 * config and reloaded with the job's program — when it is compatible
 * (same topology and processor count; see System::reuseFor).
 * Anything else replaces the cell's entry with a fresh construction, so
 * a miss never costs more than not pooling at all.
 *
 * A pool is single-threaded by design: campaign workers each use their
 * own, one per CampaignJob::worker or the thread's workerSystemPool().
 * Determinism is unaffected — a reset System replays a job
 * bit-identically to a freshly built one — so pooled parallel campaigns
 * still match serial fresh-construction runs.
 */
class SystemPool
{
  public:
    /**
     * A System ready to run(@p program) under @p cfg: the cached
     * instance for @p key if compatible, else a fresh replacement.
     * The reference is owned by the pool and stays valid until the
     * next acquire() for the same key or clear().
     */
    System &acquire(const std::string &key, const MultiProgram &program,
                    const SystemConfig &cfg);

    /** Jobs served by resetting a cached instance. */
    std::uint64_t reuses() const { return reuses_; }

    /** Jobs that constructed (first touch or incompatible); a
     * construction that throws is not counted and leaves the cell's
     * cached instance in place. */
    std::uint64_t builds() const { return builds_; }

    /** Drop every cached instance and zero the counters. */
    void
    clear()
    {
        cells_.clear();
        reuses_ = 0;
        builds_ = 0;
    }

  private:
    std::map<std::string, std::unique_ptr<System>> cells_;
    std::uint64_t reuses_ = 0;
    std::uint64_t builds_ = 0;
};

/**
 * The calling thread's private SystemPool (thread_local, created on
 * first use). Campaign job lambdas run on pool worker threads that live
 * as long as the Campaign, so instances cached here survive from job to
 * job and across map() calls without any cross-thread sharing.
 */
SystemPool &workerSystemPool();

/** How a campaign runs. */
struct CampaignConfig
{
    /** Worker threads; 0 resolves via campaignThreads(). */
    int numThreads = 0;

    /** Base of the per-job seed stream. */
    std::uint64_t baseSeed = 1;
};

/**
 * A reusable fan-out engine over one private thread pool. A job is the
 * unit of parallelism: each one (a run, an SC verification, a DRF0
 * check) executes serially on one worker.
 *
 * forEach() is the primitive: run fn over numJobs jobs, each writing
 * only its own result slot, for fans whose jobs are not all of one
 * kind. map() returns one result per job in job order; reduce() folds
 * map()'s output left-to-right, so merged aggregates are also
 * independent of the thread count.
 */
class Campaign
{
  public:
    explicit Campaign(CampaignConfig cfg = {})
        : cfg_(cfg), pool_(campaignThreads(cfg.numThreads))
    {}

    int numThreads() const { return pool_.numThreads(); }
    std::uint64_t baseSeed() const { return cfg_.baseSeed; }

    /** Run fn(job) for each job; returns when every job has. */
    void
    forEach(int numJobs, const std::function<void(const CampaignJob &)> &fn)
    {
        parallelFor(pool_, static_cast<std::size_t>(numJobs),
                    [&](std::size_t i, int worker) {
                        CampaignJob job;
                        job.index = static_cast<int>(i);
                        job.seed = campaignJobSeed(cfg_.baseSeed,
                                                   job.index);
                        job.worker = worker;
                        fn(job);
                    });
    }

    /** Run fn(job) for each job, results in job-index order. */
    template <class Result>
    std::vector<Result>
    map(int numJobs, const std::function<Result(const CampaignJob &)> &fn)
    {
        std::vector<Result> out(static_cast<std::size_t>(numJobs));
        forEach(numJobs, [&](const CampaignJob &job) {
            out[static_cast<std::size_t>(job.index)] = fn(job);
        });
        return out;
    }

    /** map() then fold in index order: order-stable aggregation. */
    template <class Result, class Acc>
    Acc
    reduce(int numJobs,
           const std::function<Result(const CampaignJob &)> &fn, Acc acc,
           const std::function<void(Acc &, const Result &)> &merge)
    {
        for (const Result &r : map<Result>(numJobs, fn))
            merge(acc, r);
        return acc;
    }

  private:
    CampaignConfig cfg_;
    ThreadPool pool_;
};

} // namespace wo

#endif // WO_WORKLOAD_CAMPAIGN_HH
