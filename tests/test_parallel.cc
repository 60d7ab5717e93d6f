/**
 * @file
 * Unit tests for the thread pool and parallelFor: shutdown semantics,
 * exception propagation, determinism against a serial loop, and the
 * participant numbers handed to each body.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hh"

namespace wo {
namespace {

TEST(ThreadPool, SpawnsRequestedWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.numThreads(), 3);
    ThreadPool one(1);
    EXPECT_EQ(one.numThreads(), 1);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numThreads(), 1);
}

TEST(ThreadPool, SubmitRunsEveryJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsPendingJobs)
{
    // Destroying the pool must run (not drop) already-submitted jobs.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                ++count;
            });
        }
        // No wait(): the destructor drains.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, RepeatedConstructDestroy)
{
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(2);
        std::atomic<int> count{0};
        pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 1);
    }
}

TEST(ThreadPool, WaitRethrowsJobException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("job failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: the pool stays usable afterwards.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    parallelFor(pool, hits.size(),
                [&](std::size_t i, int) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 64,
                             [](std::size_t i, int) {
                                 if (i == 3)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, MatchesSerialExactly)
{
    // Index-slot writes: the parallel fill must be bit-identical to the
    // serial loop regardless of scheduling.
    auto f = [](std::size_t i) {
        std::uint64_t z = 0x9e3779b97f4a7c15ull * (i + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        return z ^ (z >> 27);
    };
    const std::size_t n = 1000;
    std::vector<std::uint64_t> serial(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = f(i);

    for (int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        std::vector<std::uint64_t> par(n);
        parallelFor(pool, n, [&](std::size_t i, int) { par[i] = f(i); });
        EXPECT_EQ(par, serial) << threads << " threads";
    }
}

TEST(ParallelFor, NestedCallDoesNotDeadlock)
{
    // A pool job may itself call parallelFor on the same pool; the
    // caller participates, so even a 1-thread pool finishes.
    ThreadPool pool(1);
    std::atomic<int> total{0};
    parallelFor(pool, 4, [&](std::size_t, int) {
        parallelFor(pool, 8, [&](std::size_t, int) { ++total; });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, WorkerNumbersAreInRangeAndExclusive)
{
    // Callers index per-worker state by the participant number without
    // a lock (the litmus runner's pools, stats totals and coverage
    // maps): each number lies in [0, numThreads()] and runs one body at
    // a time.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> busy(5);
    std::atomic<int> bad{0};
    parallelFor(pool, 2000, [&](std::size_t, int worker) {
        if (worker < 0 || worker > pool.numThreads()) {
            ++bad;
            return;
        }
        if (busy[worker].exchange(1) != 0)
            ++bad;
        std::this_thread::yield();
        busy[worker].store(0);
    });
    EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelFor, ZeroAndOneIndexEdgeCases)
{
    ThreadPool pool(2);
    int calls = 0;
    parallelFor(pool, 0, [&](std::size_t, int) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(pool, 1, [&](std::size_t i, int worker) {
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(worker, pool.numThreads()); // runs on the caller
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

} // namespace
} // namespace wo
