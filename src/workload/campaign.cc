#include "workload/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

namespace wo {

std::uint64_t
campaignJobSeed(std::uint64_t baseSeed, int jobIndex)
{
    // splitmix64 finalizer over (baseSeed, index). Two rounds keep
    // adjacent indices' streams statistically independent.
    std::uint64_t z = baseSeed +
                      0x9e3779b97f4a7c15ull *
                          (static_cast<std::uint64_t>(jobIndex) + 1);
    for (int round = 0; round < 2; ++round) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
    }
    return z;
}

int
campaignThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("WO_THREADS")) {
        // One whole decimal number, as for --threads; anything else
        // ("4x", "-1", out of range) and 0 fall back to the hardware.
        try {
            if (int n = parseFlagValue<int>("WO_THREADS", env); n > 0)
                return n;
        } catch (const std::invalid_argument &) {
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

int
consumeThreadsFlag(int &argc, char **argv)
{
    int threads = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--threads=", 10) == 0)
            threads = parseFlagValue<int>("--threads", arg + 10);
        else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc)
            threads = parseFlagValue<int>("--threads", argv[++i]);
        else
            argv[out++] = argv[i];
    }
    argc = out;
    return threads;
}

System &
SystemPool::acquire(const std::string &key, const MultiProgram &program,
                    const SystemConfig &cfg)
{
    auto it = cells_.find(key);
    if (it != cells_.end() && it->second->reuseFor(program, cfg)) {
        ++reuses_;
        return *it->second;
    }
    auto sys = std::make_unique<System>(program, cfg);
    ++builds_; // only a construction that succeeded counts
    System &ref = *sys;
    cells_[key] = std::move(sys);
    return ref;
}

void
Campaign::forEach(int numJobs,
                  const std::function<void(const CampaignJob &)> &fn) const
{
    if (numJobs <= 0)
        return;
    // Every participant claims job indices from one counter until it
    // passes numJobs or a job has thrown.
    const auto n = static_cast<std::size_t>(numJobs);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::exception_ptr error;
    auto work = [&](int worker) {
        CampaignJob job;
        job.worker = worker;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            job.index = static_cast<int>(i);
            try {
                fn(job);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    {
        std::vector<std::jthread> helpers;
        const int spawn = std::min(numThreads_, numJobs - 1);
        for (int h = 0; h < spawn; ++h)
            helpers.emplace_back(work, h);
        work(numThreads_);
    } // joins the helpers
    if (error)
        std::rethrow_exception(error);
}

Drf0ProgramReport
Drf0Memo::check(const MultiProgram &program, int, std::uint64_t)
{
    const std::uint64_t key = program.contentHash();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Compute outside the lock; a concurrent duplicate of the same key
    // computes the identical report, so first-insert-wins is harmless.
    Drf0ProgramReport report = checkProgram(program);
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    auto [it, inserted] = memo_.emplace(key, std::move(report));
    return it->second;
}

std::uint64_t
Drf0Memo::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
Drf0Memo::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::uint64_t
consumeSeedFlag(int &argc, char **argv, std::uint64_t fallback)
{
    std::uint64_t seed = fallback;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--seed=", 7) == 0)
            seed = parseFlagValue<std::uint64_t>("--seed", arg + 7);
        else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc)
            seed = parseFlagValue<std::uint64_t>("--seed", argv[++i]);
        else
            argv[out++] = argv[i];
    }
    argc = out;
    return seed;
}

} // namespace wo
