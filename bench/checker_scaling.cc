/**
 * @file
 * Infrastructure ablation: cost of the formal machinery — the SC
 * verifier's backtracking search and the idealized architecture's
 * outcome enumeration — as workloads grow, plus the parallel campaign
 * engine fanning whole verifications across hardware threads.
 *
 *   $ ./checker_scaling [--threads=N]   # N defaults to WO_THREADS / hw
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench_util.hh"
#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "cpu/program_builder.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from --threads/--seed

/** Machine the traced executions run on (first --machines entry). */
const MachineSpec *g_machine = nullptr;

ExecutionTrace
traceFor(int sections, std::uint64_t seed)
{
    RandomWorkloadConfig w;
    w.numProcs = 4;
    w.numLocks = 2;
    w.locsPerLock = 3;
    w.sectionsPerProc = sections;
    w.opsPerSection = 3;
    w.seed = seed;
    MultiProgram mp = randomDrf0Program(w);
    SystemConfig cfg = g_machine->config(PolicyKind::Def2Drf0, seed);
    System sys(mp, cfg);
    sys.run();
    return sys.trace();
}

/**
 * Campaign table: verify many executions concurrently (the common
 * "check a whole sweep" workload). The verdict/state columns come from
 * the serial per-job verifier, so they are identical at every thread
 * count; only the wall time changes.
 */
void
printCampaignTable()
{
    const int sizes = 6, seedsPer = 4;
    const int jobs = sizes * seedsPer;
    Campaign campaign({g_opts.threads, g_opts.baseSeed});
    benchutil::banner(
        "Verification campaign: " + std::to_string(jobs) +
        " executions (6 sizes x 4 seeds), " +
        std::to_string(campaign.numThreads()) + " thread(s)");

    struct JobResult
    {
        int accesses = 0;
        std::uint64_t states = 0;
        bool sc = false;
    };
    auto runJob = [&](const CampaignJob &job) {
        int sections = job.index / seedsPer + 1;
        std::uint64_t seed = 11 + job.index % seedsPer;
        ExecutionTrace t = traceFor(sections, seed);
        ScReport r = verifySc(t);
        JobResult res;
        res.accesses = t.size();
        res.states = r.statesExplored;
        res.sc = r.sc();
        return res;
    };

    auto t0 = std::chrono::steady_clock::now();
    std::vector<JobResult> results =
        campaign.map<JobResult>(jobs, runJob);
    auto t1 = std::chrono::steady_clock::now();

    benchutil::Table t({"sections/proc", "appear SC", "avg accesses",
                        "total search states"});
    for (int s = 0; s < sizes; ++s) {
        int sc = 0, acc = 0;
        std::uint64_t states = 0;
        for (int k = 0; k < seedsPer; ++k) {
            const JobResult &r =
                results[static_cast<std::size_t>(s * seedsPer + k)];
            sc += r.sc ? 1 : 0;
            acc += r.accesses;
            states += r.states;
        }
        t.addRow({std::to_string(s + 1),
                  std::to_string(sc) + "/" + std::to_string(seedsPer),
                  std::to_string(acc / seedsPer),
                  std::to_string(states)});
    }
    t.print();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::cout << "\nCampaign wall time: " << ms << " ms ("
              << campaign.numThreads()
              << " threads; table bytes are thread-count independent)\n";
}

void
BM_ScVerifier(benchmark::State &state)
{
    ExecutionTrace t = traceFor(static_cast<int>(state.range(0)), 11);
    std::uint64_t states = 0;
    for (auto _ : state) {
        ScReport r = verifySc(t);
        states = r.statesExplored;
        benchmark::DoNotOptimize(r.verdict);
    }
    state.counters["trace_accesses"] =
        benchmark::Counter(static_cast<double>(t.size()));
    state.counters["search_states"] =
        benchmark::Counter(static_cast<double>(states));
}
BENCHMARK(BM_ScVerifier)->DenseRange(1, 6);

void
BM_VerifyCampaign(benchmark::State &state)
{
    // Throughput of whole-verification fan-out: 8 medium traces per
    // iteration through the campaign engine.
    std::vector<ExecutionTrace> traces;
    for (std::uint64_t s = 11; s < 19; ++s)
        traces.push_back(traceFor(4, s));
    Campaign campaign({g_opts.threads, g_opts.baseSeed});
    for (auto _ : state) {
        std::vector<int> verdicts = campaign.map<int>(
            static_cast<int>(traces.size()),
            [&](const CampaignJob &job) {
                return static_cast<int>(
                    verifySc(traces[static_cast<std::size_t>(job.index)])
                        .verdict);
            });
        benchmark::DoNotOptimize(verdicts.data());
    }
    state.counters["traces"] = benchmark::Counter(
        static_cast<double>(traces.size()), benchmark::Counter::kIsRate);
    state.SetLabel(std::to_string(campaign.numThreads()) + " threads");
}
BENCHMARK(BM_VerifyCampaign);

MultiProgram
boundedWorkload(int procs, int sections)
{
    RandomWorkloadConfig w;
    w.numProcs = procs;
    w.numLocks = 1;
    w.locsPerLock = 2;
    w.sectionsPerProc = sections;
    w.opsPerSection = 1;
    w.privateOpsBetween = 1;
    w.spinAcquire = false;
    w.seed = 5;
    return randomDrf0Program(w);
}

void
BM_OutcomeEnumeration(benchmark::State &state)
{
    MultiProgram mp =
        boundedWorkload(static_cast<int>(state.range(0)), 1);
    std::uint64_t states = 0, outcomes = 0;
    for (auto _ : state) {
        OutcomeSet s = enumerateOutcomes(mp);
        states = s.statesVisited;
        outcomes = s.outcomes.size();
        benchmark::DoNotOptimize(s.bounded);
    }
    state.counters["states"] =
        benchmark::Counter(static_cast<double>(states));
    state.counters["outcomes"] =
        benchmark::Counter(static_cast<double>(outcomes));
}
BENCHMARK(BM_OutcomeEnumeration)->DenseRange(2, 4);

void
BM_ExhaustiveInterleavings(benchmark::State &state)
{
    // Straight-line Dekker-style programs: interleavings grow
    // combinatorially with length.
    int len = static_cast<int>(state.range(0));
    MultiProgram mp("scaling");
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        for (int i = 0; i < len; ++i) {
            b.store(static_cast<Addr>(p * 100 + i), i);
        }
        b.halt();
        mp.addProgram(b.build());
    }
    std::uint64_t execs = 0;
    for (auto _ : state) {
        std::uint64_t n = 0;
        forEachExecution(mp, {},
                         [&](const ExecutionTrace &, const RunResult &,
                             bool) {
                             ++n;
                             return true;
                         });
        execs = n;
        benchmark::DoNotOptimize(n);
    }
    state.counters["interleavings"] =
        benchmark::Counter(static_cast<double>(execs));
}
BENCHMARK(BM_ExhaustiveInterleavings)->DenseRange(2, 7);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Raw simulator speed: simulated ticks per second of host time.
    std::uint64_t seed = 1;
    std::uint64_t total = 0;
    for (auto _ : state) {
        RandomWorkloadConfig w;
        w.numProcs = 8;
        w.numLocks = 4;
        w.sectionsPerProc = 6;
        w.seed = seed;
        MultiProgram mp = randomDrf0Program(w);
        SystemConfig cfg =
            machineOrThrow("net-cold").config(PolicyKind::Def2Drf1, seed++);
        System sys(mp, cfg);
        sys.run();
        total += sys.eventQueue().executed();
    }
    state.counters["events"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    g_machine = wo::benchutil::machinesOr(g_opts, "net-cold").front();
    printCampaignTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
