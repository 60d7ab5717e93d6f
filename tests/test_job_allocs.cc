/**
 * @file
 * Steady-state allocation test: a pooled corpus job touches no heap.
 *
 * This executable replaces the global operator new with a counter. It
 * runs the litmus corpus on every registered machine under the runner's
 * policies at fixed seeds, twice, through one SystemPool, the way a
 * campaign worker does: SystemPool::acquire, System::run, then the
 * clause outcome read through ClauseVars into a reused key string. The
 * first pass warms every pooled System; on the second those three steps
 * must allocate nothing at all.
 *
 * The runner keys its pool by machine and policy, so a test with another
 * processor count rebuilds that key's System, and a construction
 * allocates by design. This test adds the processor count to the key, so
 * the second pass measures the reuse path alone. It also prints, for the
 * record, the allocations per job under the runner's own keying.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/runner.hh"
#include "system/machine_spec.hh"
#include "workload/campaign.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace wo {
namespace {

using litmus_dsl::ClauseVars;
using litmus_dsl::CompiledLitmus;

/** One planned job: everything but the measured steps is built ahead. */
struct Job
{
    const CompiledLitmus *test;
    const ClauseVars *clause;
    std::string poolKey;
    SystemConfig cfg;
};

/** Allocations of one pass over the jobs, inside the measured steps. */
struct Pass
{
    std::uint64_t allocs = 0;
    std::uint64_t builds = 0;
    int finished = 0;
    int hits = 0;
};

/** One pass; @p key is the outcome-key buffer every job reuses. */
Pass
runPass(const std::vector<Job> &jobs, SystemPool &pool, std::string &key)
{
    Pass pass;
    const std::uint64_t builds = pool.builds();
    for (const Job &job : jobs) {
        const std::uint64_t before = g_allocs.load();
        System &sys = pool.acquire(job.poolKey, job.test->program, job.cfg);
        bool finished = sys.run();
        if (finished) {
            key.clear();
            job.clause->appendKey(sys, key);
            pass.hits += job.clause->holds(sys) ? 1 : 0;
            ++pass.finished;
        }
        pass.allocs += g_allocs.load() - before;
    }
    pass.builds = pool.builds() - builds;
    return pass;
}

std::vector<CompiledLitmus>
litmusCorpus()
{
    std::vector<CompiledLitmus> tests;
    for (const std::string &f :
         litmus_dsl::findLitmusFiles({WO_LITMUS_DIR}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));
    return tests;
}

/** The corpus x @p machines x the runner's policies x 3 fixed seeds;
 * @p keyByProcs adds the processor count to the pool key. */
std::vector<Job>
planJobs(const std::vector<CompiledLitmus> &tests,
         const std::vector<ClauseVars> &clauses,
         const std::vector<const MachineSpec *> &machines, bool keyByProcs)
{
    std::vector<Job> jobs;
    for (std::size_t t = 0; t < tests.size(); ++t) {
        for (PolicyKind pk : litmus_dsl::RunnerOptions().policies) {
            for (const MachineSpec *m : machines) {
                for (int s = 0; s < 3; ++s) {
                    Job job{&tests[t], &clauses[t],
                            m->name + "/" + toString(pk),
                            m->config(pk, campaignJobSeed(1, s))};
                    try {
                        System::checkConfig(tests[t].program, job.cfg);
                    } catch (const std::invalid_argument &) {
                        continue; // unrunnable cell
                    }
                    if (keyByProcs)
                        job.poolKey += "/" + std::to_string(
                                                 tests[t].program.numProcs());
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    return jobs;
}

void
expectSteadyStateAllocationFree(
    const char *fan, const std::vector<const MachineSpec *> &machines)
{
    const std::vector<CompiledLitmus> tests = litmusCorpus();
    ASSERT_GE(tests.size(), 15u);
    std::vector<ClauseVars> clauses;
    for (const CompiledLitmus &t : tests)
        clauses.emplace_back(t.clause.cond, t.addrOf);

    const std::vector<Job> jobs = planJobs(tests, clauses, machines, true);
    ASSERT_FALSE(jobs.empty());
    SystemPool pool;
    std::string key;
    const Pass warm = runPass(jobs, pool, key);
    const Pass steady = runPass(jobs, pool, key);
    EXPECT_EQ(steady.finished, warm.finished);
    EXPECT_EQ(steady.hits, warm.hits);
    EXPECT_GT(steady.finished, 0);
    EXPECT_EQ(steady.builds, 0u) << "the second pass must reuse every System";
    EXPECT_EQ(steady.allocs, 0u)
        << fan << ": acquire + run + clause read allocated on a warm pool";

    // For the record: the runner's machine/policy keying, whose Systems
    // are rebuilt when the processor count changes between tests.
    const std::vector<Job> runnerJobs =
        planJobs(tests, clauses, machines, false);
    SystemPool runnerPool;
    runPass(runnerJobs, runnerPool, key);
    const Pass runner = runPass(runnerJobs, runnerPool, key);

    const double n = static_cast<double>(jobs.size());
    std::printf("[ allocs   ] %s: %zu jobs; allocations per job: first "
                "pass %.2f, warm pass %.2f; runner keying warm pass %.2f "
                "(%llu rebuilds)\n",
                fan, jobs.size(), static_cast<double>(warm.allocs) / n,
                static_cast<double>(steady.allocs) / n,
                static_cast<double>(runner.allocs) / n,
                static_cast<unsigned long long>(runner.builds));
}

TEST(JobAllocations, WarmFleetJobAllocatesNothing)
{
    expectSteadyStateAllocationFree("fleet", parseMachineList("*"));
}

TEST(JobAllocations, WarmDefaultFanJobAllocatesNothing)
{
    expectSteadyStateAllocationFree("default fan",
                                    litmus_dsl::defaultMachines());
}

TEST(JobAllocations, CounterSeesTheHeap)
{
    // Guard against a replacement the linker did not pick up: then every
    // count above would read 0 and prove nothing.
    const std::uint64_t before = g_allocs.load();
    std::vector<int> *v = new std::vector<int>(100);
    const std::uint64_t after = g_allocs.load();
    delete v;
    EXPECT_EQ(after - before, 2u);
}

} // namespace
} // namespace wo
