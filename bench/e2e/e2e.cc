/**
 * @file
 * End-to-end benchmark of the two ways this repository checks the
 * Definition 2 contract: litmus corpus campaigns (simulate, SC-verify,
 * axiomatic containment) and trace replay (logical and on a simulated
 * System), with a traced per-layer breakdown.
 *
 *   $ e2e --workload=NAME [--seed=S] [--seconds=T] [--trace=FILE]
 *         [--workdir=DIR] [--smoke]
 *
 * Workloads: corpus-default, corpus-fleet, replay-verify, replay-sim (see
 * README.md for why each exists). Run from the repository root: the
 * corpus is read from tests/litmus, exactly as `wo-litmus tests/litmus`
 * reads it. Generated replay traces go to --workdir (default: the system
 * temp directory) and are removed at exit.
 *
 * Untraced run (no --trace): set up three times (inputs + one untimed
 * warm-up repetition) and report the median as setup_s, then repeat the
 * workload through the public API until --seconds have passed (at least
 * three repetitions) and report the median throughput and the peak RSS.
 * Repetition r uses seed S+r. Times are in reference seconds: wall time
 * rescaled by the host speed measured next to each phase (see
 * refKernelSeconds).
 *
 * Traced run (--trace=FILE): set up once, then alternate untraced
 * reference runs with a replica of the pipeline that calls each layer's
 * public function inside a span (name, start, end, parent, job id). The
 * replica's results are gated against the reference. Spans stay in memory;
 * those of the first traced repetition are written to FILE as a Chrome
 * trace at exit. Prints every per-layer metric.
 *
 * Every metric prints as `name value unit`; the last line of standard
 * output is one JSON object {"correct", "attempted", "failed", "metrics"}.
 *
 * Exit status: 0 every correctness gate held, 1 a gate failed or the run
 * threw, 2 bad usage.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "axiom/enumerate.hh"
#include "core/sc_verifier.hh"
#include "core/stream_checker.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/runner.hh"
#include "replay/replay_engine.hh"
#include "replay/system_replay.hh"
#include "replay/trace_format.hh"
#include "replay/trace_gen.hh"
#include "system/machine_spec.hh"
#include "workload/campaign.hh"

namespace {

using namespace wo;
using namespace wo::litmus_dsl;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRounds = 3; ///< setup_s is the median of these
constexpr int kMinReps = 3;     ///< timed repetitions, at least

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Reference seconds

/**
 * Host-speed reference. On a shared host the machine's speed drifts by
 * tens of percent over minutes (the same workload measured 38.6k and
 * 65.8k jobs/s ten minutes apart), far more than any bound a regression
 * gate can use. A fixed kernel, timed before and after every measured
 * phase, tracks that drift, and the phase's wall time is rescaled by the
 * kernel's nominal over measured time.
 *
 * The kernel builds and walks a 20000-node std::map, so like the
 * simulator it chases pointers through about 1 MB. Over ten 20-second
 * runs on a loaded 4-vCPU host, the spread (q3 - q1 over the median) of
 * corpus-default was 33.8% in wall seconds, 16.1% rescaled by a
 * register-only xorshift loop and 10.0% by this kernel; replay-verify's
 * was 29.2%, 10.0% and 3.6%. The nodes come from a static arena, never
 * from malloc, so the heap a code change leaves behind cannot change the
 * kernel's time. On a host that runs the kernel in kRefKernelSeconds,
 * reference and wall seconds agree.
 */
constexpr int kRefKernelNodes = 20000;
constexpr double kRefKernelSeconds = 0.0032; ///< nominal kernel time

alignas(64) std::byte refArena[1 << 20]; ///< > kRefKernelNodes map nodes
volatile std::uint64_t refKernelSink = 0;

double
refKernelSeconds()
{
    auto t0 = Clock::now();
    std::pmr::monotonic_buffer_resource arena(
        refArena, sizeof refArena, std::pmr::null_memory_resource());
    std::pmr::map<std::uint64_t, std::uint64_t> m(&arena);
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < kRefKernelNodes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m[x % 100000003] += static_cast<std::uint64_t>(i);
    }
    std::uint64_t acc = 0;
    for (const auto &[key, value] : m)
        acc += value;
    refKernelSink = acc;
    return secondsSince(t0);
}

/** @p seconds of wall time, between kernel timings @p before and
 * @p after, in reference seconds. */
double
toRefSeconds(double seconds, double before, double after)
{
    return seconds * kRefKernelSeconds * 2 / (before + after);
}

// ---------------------------------------------------------------------
// Statistics

struct Summary
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    std::size_t n = 0;
};

/** Median and quartiles; the quartiles follow Python's
 * statistics.quantiles(values, n=4) (its default exclusive method), so
 * this harness and compare.py report the same spread. */
Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    auto quartile = [&](long i) {
        long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        long delta = i * (n + 1) - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/** Peak resident set size (VmHWM) of this process in MiB; 0 where
 * /proc is unavailable. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

/** Correctness gates: every failure is reported on stderr and makes the
 * run incorrect (exit 1). */
class Gates
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        if (failures_ < 20)
            std::cerr << "e2e: gate failed: " << what << "\n";
        ++failures_;
    }

    bool ok() const { return failures_ == 0; }

  private:
    int failures_ = 0;
};

// ---------------------------------------------------------------------
// Spans

/**
 * In-memory span recorder for the traced run. A span is one call into a
 * layer: name, start, end, enclosing span and the litmus job it served
 * (inherited from the enclosing span). Spans named "rep" delimit one
 * traced repetition; "job" groups one litmus job's calls.
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        int parent;
        int job;
    };

    struct Layer
    {
        double selfMs = 0;
        double totalMs = 0;
        std::uint64_t calls = 0;
        bool inRep = false; ///< recorded inside a "rep" span
    };

    struct Profile
    {
        std::map<std::string, Layer> layers;
        double repMs = 0;        ///< summed "rep" span durations
        double attributedMs = 0; ///< in-rep self time of layer spans
    };

    void
    open(const char *name, int job)
    {
        int parent = stack_.empty() ? -1 : stack_.back();
        if (job < 0 && parent >= 0)
            job = spans_[static_cast<std::size_t>(parent)].job;
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, now(), 0, parent, job});
    }

    void
    close()
    {
        spans_[static_cast<std::size_t>(stack_.back())].end = now();
        stack_.pop_back();
    }

    /** Only spans recorded so far go to the Chrome trace file. */
    void sealFile() { fileSpans_ = spans_.size(); }

    /** Self time (duration minus child spans) per span name. */
    Profile
    profile() const
    {
        Profile s;
        std::vector<std::int64_t> childNs(spans_.size(), 0);
        std::vector<char> inRep(spans_.size(), 0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Record &r = spans_[i];
            if (r.parent < 0)
                continue;
            const auto p = static_cast<std::size_t>(r.parent);
            childNs[p] += r.end - r.start;
            inRep[i] = inRep[p] || std::strcmp(spans_[p].name, "rep") == 0;
        }
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Record &r = spans_[i];
            double dur = static_cast<double>(r.end - r.start) / 1e6;
            double self = dur - static_cast<double>(childNs[i]) / 1e6;
            Layer &l = s.layers[r.name];
            l.selfMs += self;
            l.totalMs += dur;
            ++l.calls;
            l.inRep = l.inRep || inRep[i];
            if (std::strcmp(r.name, "rep") == 0)
                s.repMs += dur;
            else if (inRep[i] && std::strcmp(r.name, "job") != 0)
                s.attributedMs += self;
        }
        return s;
    }

    bool
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n" << std::fixed << std::setprecision(3);
        for (std::size_t i = 0; i < fileSpans_; ++i) {
            const Record &r = spans_[i];
            out << (i ? ",\n" : "") << "{\"name\": \"" << r.name
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
                << static_cast<double>(r.start) / 1e3
                << ", \"dur\": " << static_cast<double>(r.end - r.start) / 1e3
                << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
                << ", \"job\": " << r.job << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Record> spans_;
    std::vector<int> stack_;
    std::size_t fileSpans_ = 0;
};

/** RAII span; a null tracer records nothing (the untraced replica). */
class Span
{
  public:
    Span(Tracer *tr, const char *name, int job = -1) : tr_(tr)
    {
        if (tr_)
            tr_->open(name, job);
    }
    ~Span()
    {
        if (tr_)
            tr_->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tr_;
};

// ---------------------------------------------------------------------
// Workloads

/** One timed repetition through the public API. */
struct Rep
{
    double seconds = 0;
    std::uint64_t ops = 0;       ///< litmus jobs or trace records
    std::uint64_t attempted = 0; ///< jobs or replays
    std::uint64_t failed = 0;
};

/** Layer counters gathered by the traced replica. */
struct Counts
{
    std::uint64_t events = 0; ///< simulator events executed
    std::uint64_t scStates = 0;
    std::uint64_t scVerified = 0;
    std::uint64_t scUnknown = 0;
    std::uint64_t candidates = 0;
    std::uint64_t poolReuses = 0;
    std::uint64_t poolBuilds = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::uint64_t records = 0;  ///< trace records replayed
    std::uint64_t accesses = 0; ///< accesses fed to a DRF0 checker
    std::uint64_t eventsRetired = 0;
    int windowHighWater = 0;
    std::uint64_t simTicks = 0;
    StatSet stats; ///< merged simulator statistics
};

/** Everything a traced run measures besides the spans. */
struct TracedRun
{
    int reps = 0;
    std::vector<double> tracedS; ///< replica with spans
    std::vector<double> plainS;  ///< same replica, no tracer
    std::vector<double> t1Rate;  ///< runCorpus jobs/s at threads=1
    std::vector<double> tNRate;  ///< runCorpus jobs/s at threads=N
    Counts total;                ///< summed over traced repetitions
    Counts first;                ///< traced repetition 0 (seed S) only
    Rep api;                     ///< attempted/failed of reference runs
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string traceFile;
    std::string workdir;
    bool smoke = false;
};

class Workload
{
  public:
    Workload(const Options &opt, Gates &gates) : opt_(opt), gates_(gates) {}
    virtual ~Workload() = default;

    /** Build the inputs and run one untimed warm-up repetition; spans
     * (when @p tr is set) cover input preparation. */
    virtual void setup(Tracer *tr) = 0;

    /** Timed repetition @p r (seed S+r) through the public API. */
    virtual Rep rep(int r) = 0;

    /** Gates that need the whole timed phase. */
    virtual void finish() {}

    /** Traced repetition @p r: untraced references plus the replica
     * with and without spans. */
    virtual void tracedRound(int r, Tracer &tr, TracedRun &run) = 0;

  protected:
    const Options &opt_;
    Gates &gates_;
};

/** Wall seconds of @p fn(). */
template <class Fn>
double
timed(Fn &&fn)
{
    auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** CPUs this process may run on: its affinity mask, which honours
 * taskset and cpuset limits (a CFS quota is not visible here). */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/**
 * Pool workers of the timed corpus repetitions. The calling thread of
 * runCorpus claims jobs too, so one worker keeps two threads busy, the
 * fewest runCorpus can use. More workers made runs less repeatable on a
 * shared 4-vCPU host: with an xorshift reference, ten seeds spread (q3 -
 * q1 over the median) 4.9% on corpus-default and 5.1% on corpus-fleet at
 * one worker, 9.5% and 6.7% at two, and corpus-fleet 14% at three.
 */
constexpr int kTimedWorkers = 1;

/** Pool workers of the wider runs (byte-identity gate, parallel.speedup):
 * up to 3, with the calling thread no more busy threads than CPUs. */
int
wideWorkers()
{
    return std::clamp(usableCpus() - 1, 1, 3);
}

/**
 * corpus-default / corpus-fleet: `wo-litmus tests/litmus` (bus, net,
 * net-u x 4 policies x 20 seeds) or the same corpus on every registered
 * machine x 50 seeds. One repetition is runCorpus + printReport +
 * writeJsonReport.
 */
class CorpusWorkload : public Workload
{
  public:
    CorpusWorkload(const Options &opt, Gates &gates, bool fleet)
        : Workload(opt, gates), fleet_(fleet)
    {
        runner_.seeds = fleet ? (opt.smoke ? 1 : 50) : (opt.smoke ? 2 : 20);
    }

    void
    setup(Tracer *tr) override
    {
        tests_.clear();
        for (const std::string &f : findLitmusFiles({"tests/litmus"})) {
            Span s(tr, "litmus.compile");
            tests_.push_back(compileLitmusFile(f));
        }
        machines_ = fleet_ ? parseMachineList("*") : defaultMachines();
        runApi(kTimedWorkers, opt_.seed);
    }

    Rep
    rep(int r) override
    {
        Run run =
            runApi(kTimedWorkers, opt_.seed + static_cast<std::uint64_t>(r));
        if (r == 0)
            digest0_ = run.digest;
        return run.rep;
    }

    void
    finish() override
    {
        // ROADMAP invariant: reports are byte-identical for any --threads.
        const int wide = wideWorkers();
        if (wide == kTimedWorkers) {
            std::cerr << "e2e: fewer than 3 CPUs, report byte-identity "
                         "across thread counts not checked\n";
            return;
        }
        checkSameReport(digest0_, runApi(wide, opt_.seed).digest, wide);
    }

    void
    tracedRound(int r, Tracer &tr, TracedRun &run) override
    {
        const std::uint64_t seed = opt_.seed + static_cast<std::uint64_t>(r);
        const int wide = wideWorkers();
        Run t1 = runApi(kTimedWorkers, seed);
        Run tn = runApi(wide, seed);
        checkSameReport(t1.digest, tn.digest, wide);
        run.t1Rate.push_back(static_cast<double>(t1.rep.ops) /
                             t1.rep.seconds);
        run.tNRate.push_back(static_cast<double>(tn.rep.ops) /
                             tn.rep.seconds);
        run.api.attempted += t1.rep.attempted + tn.rep.attempted;
        run.api.failed += t1.rep.failed + tn.rep.failed;
        run.plainS.push_back(replica(nullptr, seed, t1.report, nullptr));
        run.tracedS.push_back(replica(&tr, seed, t1.report, &run.total));
    }

  private:
    struct Run
    {
        Rep rep;
        std::string digest; ///< text + JSON report bytes
        CorpusReport report;
    };

    /** One test's result in the replica. */
    struct TestOut
    {
        bool drf0 = false;
        std::vector<CellReport> cells;
    };

    /** Result of one job in the replica (runner.cc's per-job record). */
    struct JobOut
    {
        bool ran = false;
        bool finished = false;
        bool hit = false;
        int scStatus = -1; ///< -1 unverified, 0 ok, 1 violation, 2 unknown
        std::string key;
        StatSet stats;
    };

    void
    checkSameReport(const std::string &timed, const std::string &wide,
                    int wideThreads)
    {
        gates_.check(timed == wide,
                     "report at threads=" + std::to_string(wideThreads) +
                         " differs from threads=" +
                         std::to_string(kTimedWorkers));
    }

    Run
    runApi(int threads, std::uint64_t seed)
    {
        RunnerOptions o = runner_;
        o.threads = threads;
        o.baseSeed = seed;
        Run run;
        std::ostringstream os;
        run.rep.seconds = timed([&] {
            run.report = runCorpus(tests_, o, machines_);
            printReport(os, run.report);
            writeJsonReport(os, run.report);
        });
        run.digest = os.str();
        // Gate on cells: a failing cell is a forbidden outcome, a non-SC
        // execution under a promise of SC, or an axiom-forbidden outcome.
        // A test-level `exists` miss (the weak outcome never sampled under
        // Relaxed) is a coverage shortfall of ~1% of base seeds, not a
        // wrong result, so it does not fail the run.
        for (const TestReport &t : run.report.tests) {
            for (const CellReport &c : t.cells) {
                run.rep.attempted += static_cast<std::uint64_t>(c.runs);
                run.rep.failed += static_cast<std::uint64_t>(
                    c.pass ? c.runs - c.finished : c.runs);
            }
        }
        gates_.check(run.rep.failed == 0,
                     std::to_string(run.rep.failed) +
                         " jobs unfinished or in failing cells at seed " +
                         std::to_string(seed));
        run.rep.ops = run.rep.attempted;
        return run;
    }

    /**
     * runCorpus at threads=1, rebuilt from the public calls with a span
     * around each. Returns the seconds of the "rep" span. Afterwards the
     * per-cell counts, histograms, verdicts and merged statistics are
     * gated against @p ref, runCorpus's report at the same seed.
     */
    double
    replica(Tracer *tr, std::uint64_t seed, const CorpusReport &ref,
            Counts *c)
    {
        std::vector<TestOut> out;
        StatSet merged;
        Drf0Memo memo;
        SystemPool pool;
        auto t0 = Clock::now();
        {
            Span rep(tr, "rep");
            for (const CompiledLitmus &test : tests_)
                out.push_back(
                    replicaTest(tr, test, seed, memo, pool, merged, c));
            Span s(tr, "litmus.report");
            std::ostringstream os;
            printReport(os, ref);
            writeJsonReport(os, ref);
        }
        double seconds = secondsSince(t0);

        if (c) {
            c->poolReuses += pool.reuses();
            c->poolBuilds += pool.builds();
            c->memoHits += memo.hits();
            c->memoMisses += memo.misses();
            c->stats.merge(merged);
            c->simTicks += merged.get("system.finish_tick");
        }
        bool same = ref.tests.size() == out.size() &&
                    merged.all() == ref.stats.all();
        for (std::size_t t = 0; same && t < out.size(); ++t) {
            const std::vector<CellReport> &want = ref.tests[t].cells;
            const std::vector<CellReport> &got = out[t].cells;
            same = ref.tests[t].drf0 == out[t].drf0 &&
                   want.size() == got.size();
            for (std::size_t i = 0; same && i < got.size(); ++i) {
                const CellReport &a = want[i];
                const CellReport &b = got[i];
                same = a.runs == b.runs && a.finished == b.finished &&
                       a.hits == b.hits && a.scOk == b.scOk &&
                       a.scViolations == b.scViolations &&
                       a.scUnknown == b.scUnknown && a.pass == b.pass &&
                       a.histogram == b.histogram &&
                       a.axiomForbidden == b.axiomForbidden;
            }
        }
        gates_.check(same, "traced replica differs from runCorpus at seed " +
                               std::to_string(seed));
        return seconds;
    }

    /** One test of the replica: runner.cc's job fan, aggregation and
     * axiomatic stage, in the same order. */
    TestOut
    replicaTest(Tracer *tr, const CompiledLitmus &test, std::uint64_t seed,
                Drf0Memo &memo, SystemPool &pool, StatSet &merged,
                Counts *c)
    {
        Drf0ProgramReport drf0;
        {
            Span s(tr, "core.drf0_sampled");
            drf0 = memo.check(test.program, runner_.drf0Schedules, seed);
        }

        // The campaign plan: cells in policy-major order and one result
        // slot per job. Its first allocations also pay the allocator's
        // deferred cleanup after the DRF0 check (up to 0.5 ms a test).
        std::optional<Span> plan(std::in_place, tr, "workload.campaign");
        std::vector<ObservedVar> vars = observedVars(test.clause.cond);
        std::vector<CellReport> cells;
        std::vector<const MachineSpec *> cellMachine;
        for (PolicyKind pk : runner_.policies) {
            for (const MachineSpec *m : machines_) {
                CellReport cell;
                cell.policy = pk;
                cell.variant = m->name;
                cells.push_back(std::move(cell));
                cellMachine.push_back(m);
            }
        }
        const int perCell = runner_.seeds;
        const int numJobs = static_cast<int>(cells.size()) * perCell;
        std::vector<JobOut> outs(static_cast<std::size_t>(numJobs));
        plan.reset();

        for (int j = 0; j < numJobs; ++j) {
            Span job(tr, "job", jobId_++);
            const auto ci = static_cast<std::size_t>(j / perCell);
            const PolicyKind policy = cells[ci].policy;
            JobOut &out = outs[static_cast<std::size_t>(j)];
            System *sys = nullptr;
            {
                Span s(tr, "workload.pool_acquire");
                SystemConfig cfg = cellMachine[ci]->config(
                    policy, campaignJobSeed(seed, j));
                try {
                    sys = &pool.acquire(cellMachine[ci]->name + "/" +
                                            toString(policy),
                                        test.program, cfg);
                } catch (const std::invalid_argument &) {
                    // Illegal machine/policy pair: the cell reports 0 runs.
                }
            }
            if (!sys)
                continue;
            out.ran = true;
            {
                Span s(tr, "system.run");
                out.finished = sys->run();
            }
            if (c)
                c->events += sys->eventQueue().executed();
            if (out.finished) {
                {
                    Span s(tr, "litmus.expect");
                    RunResult r = sys->result();
                    for (const auto &[loc, addr] : test.addrOf) {
                        if (!r.finalMemory.count(addr))
                            r.finalMemory[addr] =
                                test.program.initialValue(addr);
                    }
                    out.hit = evalCond(test.clause.cond, r, test.addrOf);
                    out.key = outcomeKey(vars, r, test.addrOf);
                }
                Span s(tr, "core.sc_verify");
                ScReport sc =
                    verifySc(sys->trace(), {runner_.maxVerifyStates});
                out.scStatus = sc.verdict == ScVerdict::Sc      ? 0
                               : sc.verdict == ScVerdict::NotSc ? 1
                                                                : 2;
                if (c) {
                    c->scStates += sc.statesExplored;
                    ++c->scVerified;
                    c->scUnknown += out.scStatus == 2 ? 1 : 0;
                }
            }
            Span s(tr, "sim.stats");
            out.stats = sys->stats();
        }

        {
            Span agg(tr, "litmus.aggregate");
            for (std::size_t ci = 0; ci < cells.size(); ++ci) {
                CellReport &cell = cells[ci];
                for (int s = 0; s < perCell; ++s) {
                    const JobOut &o =
                        outs[ci * static_cast<std::size_t>(perCell) +
                             static_cast<std::size_t>(s)];
                    if (!o.ran)
                        continue;
                    ++cell.runs;
                    if (!o.finished)
                        continue;
                    ++cell.finished;
                    cell.hits += o.hit ? 1 : 0;
                    cell.scOk += o.scStatus == 0 ? 1 : 0;
                    cell.scViolations += o.scStatus == 1 ? 1 : 0;
                    cell.scUnknown += o.scStatus == 2 ? 1 : 0;
                    ++cell.histogram[o.key];
                    Span m(tr, "sim.stats");
                    merged.merge(o.stats);
                }
            }
            Span m(tr, "sim.stats");
            std::vector<JobOut>().swap(outs);
        }

        axiom::AxiomResult ax;
        {
            Span s(tr, "axiom.enumerate");
            axiom::ModelContext mctx;
            mctx.programDrf0 = drf0.obeysDrf0;
            ax = axiom::enumerateAllowed(test.program, axiom::axiomModels(),
                                         mctx, runner_.axiomLimits);
        }
        if (c)
            c->candidates += ax.stats.candidates;

        Span agg(tr, "litmus.aggregate");
        std::map<std::string, std::set<std::string>> allowed;
        for (const auto &[model, results] : ax.allowed) {
            std::set<std::string> &keys = allowed[model];
            for (RunResult r : results) {
                for (const auto &[loc, addr] : test.addrOf) {
                    if (!r.finalMemory.count(addr))
                        r.finalMemory[addr] = test.program.initialValue(addr);
                }
                keys.insert(outcomeKey(vars, r, test.addrOf));
            }
        }
        for (CellReport &cell : cells) {
            const std::set<std::string> &keys =
                allowed[axiom::modelForPolicy(cell.policy)->name()];
            for (const auto &[key, count] : cell.histogram) {
                if (!keys.count(key))
                    cell.axiomForbidden.push_back(key);
            }
            // runner.cc's verdict: SC is promised under SC always and
            // under Def1/Def2 exactly for DRF0 programs.
            bool promised = cell.policy == PolicyKind::Sc ||
                            (cell.policy != PolicyKind::Relaxed &&
                             drf0.obeysDrf0);
            if (test.clause.kind == ClauseKind::Forbidden) {
                cell.enforced = promised || test.clause.always;
                if (cell.enforced && cell.hits > 0)
                    cell.pass = false;
            }
            if (promised && cell.scViolations > 0)
                cell.pass = false;
            if (!cell.axiomForbidden.empty() && ax.complete)
                cell.pass = false;
        }
        return {drf0.obeysDrf0, std::move(cells)};
    }

    bool fleet_;
    RunnerOptions runner_;
    std::vector<CompiledLitmus> tests_;
    std::vector<const MachineSpec *> machines_;
    std::string digest0_;
    int jobId_ = 0;
};

/** One generated trace file. */
struct TraceInput
{
    const char *workload; ///< trace_gen name
    int rounds;
    bool racy; ///< injectRace: the verdict must name a race
    std::string path;
    std::uint64_t records = 0;
};

/** Write every trace of @p inputs under @p dir from seed @p seed. */
void
generateTraces(Tracer *tr, std::vector<TraceInput> &inputs,
               const std::string &dir, std::uint64_t seed)
{
    for (TraceInput &in : inputs) {
        Span s(tr, "replay.gen");
        TraceGenConfig cfg;
        cfg.threads = 4;
        cfg.rounds = in.rounds;
        cfg.seed = seed;
        cfg.injectRace = in.racy;
        in.path = (std::filesystem::path(dir) /
                   ("e2e-" + std::string(in.workload) + ".wotrace"))
                      .string();
        ReplayTraceReader reader;
        if (!writeWorkloadTrace(in.workload, in.path, cfg) ||
            !reader.open(in.path)) {
            throw std::runtime_error("cannot write trace " + in.path);
        }
        in.records = reader.totalRecords();
    }
}

void
removeTraces(const std::vector<TraceInput> &inputs)
{
    for (const TraceInput &in : inputs) {
        std::error_code ec;
        std::filesystem::remove(in.path, ec);
    }
}

/**
 * replay-verify: logical replay plus the streaming DRF0 check of a
 * spinlock (~1.2M records), barrier (~0.56M) and racy producer-consumer
 * (~2.4M) trace, 4 threads each, window 65536, FirstRace.
 */
class ReplayVerifyWorkload : public Workload
{
  public:
    static constexpr int kWindow = 1 << 16;

    ReplayVerifyWorkload(const Options &opt, Gates &gates)
        : Workload(opt, gates)
    {
        inputs_ = {{"spinlock", opt.smoke ? 500 : 50000, false, {}},
                   {"barrier", opt.smoke ? 200 : 20000, false, {}},
                   {"prodcons", opt.smoke ? 1000 : 100000, true, {}}};
    }
    ~ReplayVerifyWorkload() override { removeTraces(inputs_); }

    void
    setup(Tracer *tr) override
    {
        generateTraces(tr, inputs_, opt_.workdir, opt_.seed);
        replica(nullptr, 0, nullptr);
    }

    Rep rep(int r) override { return replica(nullptr, r, nullptr); }

    void
    tracedRound(int r, Tracer &tr, TracedRun &run) override
    {
        Rep plain = replica(nullptr, r, nullptr);
        run.plainS.push_back(plain.seconds);
        run.api.attempted += plain.attempted;
        run.api.failed += plain.failed;
        run.tracedS.push_back(replica(&tr, r, &run.total).seconds);
        // A pure reader scan, outside the repetition: the engine's own
        // reads interleave with replay and cannot be timed from outside.
        for (const TraceInput &in : inputs_) {
            Span s(&tr, "replay.read");
            ReplayTraceReader reader;
            ReplayRecord rec;
            std::uint64_t n = 0;
            if (reader.open(in.path)) {
                for (int t = 0; t < reader.numThreads(); ++t) {
                    while (reader.next(t, rec))
                        ++n;
                }
            }
            gates_.check(n == in.records, std::string("reader scan of ") +
                                              in.workload + " lost records");
        }
    }

  private:
    /** The repetition: the public calls `wo-replay verify` makes, one
     * trace after another. */
    Rep
    replica(Tracer *tr, int r, Counts *c)
    {
        ReplayOptions o;
        o.window = kWindow;
        o.mode = RaceDetectMode::FirstRace;
        o.seed = opt_.seed + static_cast<std::uint64_t>(r);
        std::vector<ReplayResult> results;
        Rep rep;
        rep.seconds = timed([&] {
            Span root(tr, "rep");
            for (const TraceInput &in : inputs_) {
                Span s(tr, "replay.engine");
                ReplayTraceReader reader;
                ReplayResult res;
                if (reader.open(in.path)) {
                    ReplayEngine engine(reader, o);
                    res = engine.run();
                } else {
                    res.ok = false;
                }
                results.push_back(std::move(res));
            }
        });
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            const TraceInput &in = inputs_[i];
            const ReplayResult &res = results[i];
            bool good = res.ok && res.raceFree == !in.racy &&
                        res.recordsReplayed == in.records &&
                        res.windowHighWater <= kWindow + kWindow / 2;
            gates_.check(good, std::string("replay of ") + in.workload +
                                   ": " +
                                   (res.ok ? "wrong verdict or window"
                                           : res.error));
            ++rep.attempted;
            rep.failed += good ? 0 : 1;
            rep.ops += in.records;
            if (c) {
                c->records += in.records;
                c->accesses += res.accesses;
                c->eventsRetired +=
                    static_cast<std::uint64_t>(res.eventsRetired);
                c->windowHighWater =
                    std::max(c->windowHighWater, res.windowHighWater);
            }
        }
        return rep;
    }

    std::vector<TraceInput> inputs_;
};

/**
 * replay-sim: buildReplayProgram + replayOnSystem of a spinlock (2000
 * rounds) and a barrier (1000 rounds) trace on net (MSI, one level) and
 * net-l2-moesi (two levels), def2drf0, window 16384, chunk 4096.
 */
class ReplaySimWorkload : public Workload
{
  public:
    static constexpr int kWindow = 1 << 14;
    static constexpr Tick kChunk = 4096;

    ReplaySimWorkload(const Options &opt, Gates &gates)
        : Workload(opt, gates)
    {
        inputs_ = {{"spinlock", opt.smoke ? 20 : 2000, false, {}},
                   {"barrier", opt.smoke ? 10 : 1000, false, {}}};
    }
    ~ReplaySimWorkload() override { removeTraces(inputs_); }

    void
    setup(Tracer *tr) override
    {
        generateTraces(tr, inputs_, opt_.workdir, opt_.seed);
        ticks_.clear();
        api();
    }

    Rep rep(int) override { return api().rep; }

    void
    tracedRound(int, Tracer &tr, TracedRun &run) override
    {
        Api ref = api();
        run.api.attempted += ref.rep.attempted;
        run.api.failed += ref.rep.failed;
        run.plainS.push_back(replica(nullptr, ref.results, nullptr));
        run.tracedS.push_back(replica(&tr, ref.results, &run.total));
    }

  private:
    static constexpr const char *kMachines[] = {"net", "net-l2-moesi"};

    struct Api
    {
        Rep rep;
        std::vector<SystemReplayResult> results; ///< machine-major
    };

    SystemReplayOptions
    options(const char *machine) const
    {
        SystemReplayOptions o;
        o.machine = machine;
        o.policy = PolicyKind::Def2Drf0;
        o.netSeed = opt_.seed;
        o.window = kWindow;
        o.chunkTicks = kChunk;
        return o;
    }

    /** The repetition: what `wo-replay sim` calls, per machine x trace. */
    Api
    api()
    {
        Api a;
        a.rep.seconds = timed([&] {
            for (const char *m : kMachines) {
                for (const TraceInput &in : inputs_) {
                    ReplayTraceReader reader;
                    if (!reader.open(in.path))
                        throw std::runtime_error("cannot read " + in.path);
                    a.results.push_back(replayOnSystem(reader, options(m)));
                }
            }
        });
        for (std::size_t i = 0; i < a.results.size(); ++i) {
            const SystemReplayResult &res = a.results[i];
            const TraceInput &in = inputs_[i % inputs_.size()];
            // The simulation is deterministic for a fixed net seed.
            if (ticks_.size() < a.results.size())
                ticks_.push_back(res.finishTick);
            bool good = res.ok && res.raceFree &&
                        res.windowHighWater <= kWindow + kWindow / 2 &&
                        res.finishTick == ticks_[i];
            gates_.check(good, std::string("system replay of ") +
                                   in.workload + " on " +
                                   kMachines[i / inputs_.size()]);
            ++a.rep.attempted;
            a.rep.failed += good ? 0 : 1;
            a.rep.ops += in.records;
        }
        return a;
    }

    /**
     * replayOnSystem rebuilt from public calls with spans around each;
     * the results are gated against @p ref (same options, untraced).
     */
    double
    replica(Tracer *tr, const std::vector<SystemReplayResult> &ref,
            Counts *c)
    {
        std::vector<SystemReplayResult> got;
        std::vector<System *> systems;
        const std::uint64_t reuses0 = pool_.reuses();
        const std::uint64_t builds0 = pool_.builds();
        auto t0 = Clock::now();
        {
            Span rep(tr, "rep");
            for (const char *m : kMachines) {
                for (const TraceInput &in : inputs_) {
                    Span sr(tr, "replay.system_replay");
                    ReplayTraceReader reader;
                    if (!reader.open(in.path))
                        throw std::runtime_error("cannot read " + in.path);
                    MultiProgram program;
                    {
                        Span s(tr, "replay.build_program");
                        program = buildReplayProgram(reader, "replay");
                    }
                    System *sys = nullptr;
                    {
                        Span s(tr, "workload.pool_acquire");
                        // One System per (machine, trace) so its stats
                        // stay readable after the repetition.
                        sys = &pool_.acquire(
                            std::string(m) + "/" + in.workload, program,
                            machineOrThrow(m).config(PolicyKind::Def2Drf0,
                                                     opt_.seed));
                    }
                    StreamingDrf0Checker checker(program.numProcs(),
                                                 RaceDetectMode::FirstRace);
                    auto drain = [&](System &s) {
                        Span d(tr, "core.stream_check");
                        checker.drainWindow(s.trace(), s.eventQueue().now());
                        ExecutionTrace &t = s.mutableTrace();
                        int excess = t.resident() - kWindow;
                        if (excess > 0)
                            t.popFront(
                                std::min(checker.retireReady(t), excess));
                    };
                    SystemReplayResult res;
                    {
                        Span s(tr, "system.run");
                        res.ok = sys->runStreaming(kChunk, drain);
                    }
                    Span s(tr, "core.stream_check");
                    checker.finish(sys->trace());
                    res.raceFree = checker.raceFree();
                    res.accesses = checker.consumed();
                    res.eventsRetired = sys->trace().retired();
                    res.windowHighWater = sys->trace().windowHighWater();
                    res.finishTick = sys->finishTick();
                    got.push_back(std::move(res));
                    systems.push_back(sys);
                }
            }
        }
        double seconds = secondsSince(t0);

        for (std::size_t i = 0; i < got.size(); ++i) {
            const SystemReplayResult &a = ref[i];
            const SystemReplayResult &b = got[i];
            gates_.check(a.ok == b.ok && a.raceFree == b.raceFree &&
                             a.accesses == b.accesses &&
                             a.eventsRetired == b.eventsRetired &&
                             a.windowHighWater == b.windowHighWater &&
                             a.finishTick == b.finishTick,
                         "traced system replay differs from replayOnSystem");
            if (!c)
                continue;
            const TraceInput &in = inputs_[i % inputs_.size()];
            c->records += in.records;
            c->accesses += b.accesses;
            c->eventsRetired += static_cast<std::uint64_t>(b.eventsRetired);
            c->windowHighWater =
                std::max(c->windowHighWater, b.windowHighWater);
            c->simTicks += b.finishTick;
            c->events += systems[i]->eventQueue().executed();
            c->stats.merge(systems[i]->stats());
        }
        if (c) {
            c->poolReuses += pool_.reuses() - reuses0;
            c->poolBuilds += pool_.builds() - builds0;
        }
        return seconds;
    }

    std::vector<TraceInput> inputs_;
    std::vector<Tick> ticks_; ///< finishTick of every replay, first run
    SystemPool pool_;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt, Gates &gates)
{
    if (opt.workload == "corpus-default")
        return std::make_unique<CorpusWorkload>(opt, gates, false);
    if (opt.workload == "corpus-fleet")
        return std::make_unique<CorpusWorkload>(opt, gates, true);
    if (opt.workload == "replay-verify")
        return std::make_unique<ReplayVerifyWorkload>(opt, gates);
    if (opt.workload == "replay-sim")
        return std::make_unique<ReplaySimWorkload>(opt, gates);
    return nullptr;
}

// ---------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Full-precision number; JSON has no NaN or infinity. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printMetric(const Metric &m, const Summary *spread = nullptr)
{
    std::cout << m.name << " " << num(m.value) << " " << m.unit;
    if (spread) {
        std::cout << "  (median " << num(spread->median) << ", q1 "
                  << num(spread->q1) << ", q3 " << num(spread->q3) << ", n "
                  << spread->n << ")";
    }
    std::cout << "\n";
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << num(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

/** Sum of StatSet counters named <prefix><digits>.<field>. */
double
sumIndexed(const StatSet &stats, const std::string &prefix,
           const std::string &field)
{
    double sum = 0;
    for (const auto &[name, value] : stats.all()) {
        if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() ||
            !std::isdigit(static_cast<unsigned char>(name[prefix.size()])))
            continue;
        std::size_t dot = name.find('.', prefix.size());
        if (dot == std::string::npos || name.substr(dot + 1) != field)
            continue;
        bool digits = true;
        for (std::size_t i = prefix.size(); i < dot; ++i)
            digits = digits && std::isdigit(static_cast<unsigned char>(name[i]));
        if (digits)
            sum += static_cast<double>(value);
    }
    return sum;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** Per-layer metrics of a traced run, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(const Tracer::Profile &ts, const TracedRun &run)
{
    const double reps = std::max(1, run.reps);
    auto self = [&](const char *name) {
        auto it = ts.layers.find(name);
        return it == ts.layers.end() ? 0.0 : it->second.selfMs;
    };
    auto total = [&](const char *name) {
        auto it = ts.layers.find(name);
        return it == ts.layers.end() ? 0.0 : it->second.totalMs;
    };
    const Counts &c = run.total;
    const Counts &f = run.first;
    const StatSet &st = f.stats;
    const double msgs = st.get("bus.msgs") + st.get("net.msgs");
    const double l1Hits = sumIndexed(st, "cache", "hits");
    const double serialMs = total("core.drf0_sampled") +
                            total("axiom.enumerate") +
                            total("litmus.aggregate") +
                            total("litmus.report");
    Summary t1 = summarize(run.t1Rate);
    Summary tn = summarize(run.tNRate);
    Summary traced = summarize(run.tracedS);
    Summary plain = summarize(run.plainS);

    return {
        {"litmus.compile.ms", self("litmus.compile"), "ms"},
        {"core.drf0_sampled.ms", self("core.drf0_sampled") / reps, "ms"},
        {"workload.drf0_memo.hit_ratio",
         ratio(c.memoHits, c.memoHits + c.memoMisses), "ratio"},
        {"axiom.enumerate.ms", self("axiom.enumerate") / reps, "ms"},
        {"axiom.candidates", static_cast<double>(f.candidates), "count"},
        {"workload.campaign.ms", self("workload.campaign") / reps, "ms"},
        {"workload.pool_acquire.ms", self("workload.pool_acquire") / reps,
         "ms"},
        {"workload.pool.reuse_ratio",
         ratio(c.poolReuses, c.poolReuses + c.poolBuilds), "ratio"},
        {"system.run.ms", self("system.run") / reps, "ms"},
        {"sim.events", static_cast<double>(f.events), "count"},
        {"sim.ns_per_event", ratio(self("system.run") * 1e6, c.events), "ns"},
        {"sim.stats.ms", self("sim.stats") / reps, "ms"},
        {"litmus.expect.ms", self("litmus.expect") / reps, "ms"},
        {"core.sc_verify.ms", self("core.sc_verify") / reps, "ms"},
        {"core.sc_verify.states", static_cast<double>(f.scStates), "count"},
        {"core.sc_verify.unknown_ratio", ratio(c.scUnknown, c.scVerified),
         "ratio"},
        {"litmus.aggregate.ms", self("litmus.aggregate") / reps, "ms"},
        {"litmus.report.ms", self("litmus.report") / reps, "ms"},
        {"parallel.speedup", ratio(tn.median, t1.median), "x"},
        {"parallel.serial_share", ratio(serialMs, ts.repMs), "ratio"},
        {"replay.gen.ms", self("replay.gen"), "ms"},
        {"replay.read.ms", self("replay.read") / reps, "ms"},
        {"replay.engine.ms", self("replay.engine") / reps, "ms"},
        {"replay.ns_per_record", ratio(self("replay.engine") * 1e6, c.records),
         "ns"},
        {"replay.build_program.ms", self("replay.build_program") / reps,
         "ms"},
        {"replay.system_replay.ms", total("replay.system_replay") / reps,
         "ms"},
        {"replay.sim.ns_per_access",
         ratio(total("replay.system_replay") * 1e6,
               static_cast<double>(c.accesses)),
         "ns"},
        {"core.stream_check.ms", self("core.stream_check") / reps, "ms"},
        {"core.trace.window_high_water",
         static_cast<double>(f.windowHighWater), "count"},
        {"core.trace.events_retired", static_cast<double>(f.eventsRetired),
         "count"},
        {"sim_ticks", static_cast<double>(f.simTicks), "ticks"},
        {"cpu.instructions", sumIndexed(st, "proc", "instructions"), "count"},
        {"cpu.policy_stalls", sumIndexed(st, "proc", "policy_stalls"),
         "count"},
        {"coherence.l1_hit_ratio",
         ratio(l1Hits, l1Hits + sumIndexed(st, "cache", "misses")), "ratio"},
        {"coherence.invalidations", sumIndexed(st, "cache", "invalidations"),
         "count"},
        {"coherence.dir_requests", sumIndexed(st, "dir", "requests"),
         "count"},
        {"mem.msgs", msgs, "count"},
        {"mem.ticks_per_msg",
         ratio(st.get("bus.latency_total") + st.get("net.latency_total"),
               msgs),
         "ticks"},
        {"trace.attributed_share", ratio(ts.attributedMs, ts.repMs), "ratio"},
        {"trace.overhead", ratio(traced.median, plain.median) - 1, "ratio"},
    };
}

void
printLayerTable(const Tracer::Profile &ts, int reps)
{
    std::vector<std::pair<std::string, Tracer::Layer>> rows(
        ts.layers.begin(), ts.layers.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfMs > b.second.selfMs;
    });
    std::cout << "\nspan self time per traced repetition (" << reps
              << " repetitions, " << num(ts.repMs / std::max(1, reps))
              << " ms each):\n";
    for (const auto &[name, l] : rows) {
        std::cout << "  " << std::left << std::setw(26) << name << std::right
                  << std::setw(10) << l.calls << " calls " << std::setw(12)
                  << std::fixed << std::setprecision(3)
                  << l.selfMs / std::max(1, reps) << " ms";
        if (l.inRep && name != "rep")
            std::cout << "  " << std::setw(6) << std::setprecision(1)
                      << 100 * ratio(l.selfMs, ts.repMs) << "%";
        std::cout << std::defaultfloat << "\n";
    }
    std::cout << "\n";
}

int
usage()
{
    std::cerr << "usage: e2e --workload=corpus-default|corpus-fleet|"
                 "replay-verify|replay-sim\n"
                 "           [--seed=S] [--seconds=T] [--trace=FILE] "
                 "[--workdir=DIR] [--smoke]\n";
    return 2;
}

int
runUntraced(Workload &wl, const Options &opt, Gates &gates)
{
    // Every phase is bracketed by kernel timings; a phase's reference
    // seconds use the mean of the two around it.
    std::vector<double> kernelS = {refKernelSeconds()};
    std::vector<double> setupS;
    for (int k = 0; k < kSetupRounds; ++k) {
        double s = timed([&] { wl.setup(nullptr); });
        kernelS.push_back(refKernelSeconds());
        setupS.push_back(toRefSeconds(s, kernelS.end()[-2], kernelS.back()));
    }

    std::vector<double> rates, wallRates;
    std::uint64_t attempted = 0, failed = 0;
    auto t0 = Clock::now();
    for (int r = 0; r < kMinReps || secondsSince(t0) < opt.seconds; ++r) {
        Rep rep = wl.rep(r);
        kernelS.push_back(refKernelSeconds());
        const auto ops = static_cast<double>(rep.ops);
        rates.push_back(ops / toRefSeconds(rep.seconds, kernelS.end()[-2],
                                           kernelS.back()));
        wallRates.push_back(ops / rep.seconds);
        attempted += rep.attempted;
        failed += rep.failed;
    }
    wl.finish();

    Summary setup = summarize(setupS);
    Summary rate = summarize(rates);
    Summary wall = summarize(wallRates);
    std::vector<Metric> metrics = {
        {"setup_s", setup.median, "s"},
        {"ops_per_ref_s", rate.median, "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::cout << opt.workload << " seed " << opt.seed << ": " << rates.size()
              << " repetitions, host speed "
              << num(kRefKernelSeconds / summarize(kernelS).median)
              << " of nominal\n";
    printMetric(metrics[0], &setup);
    printMetric(metrics[1], &rate);
    printMetric({"wall_ops_per_s", wall.median, "1/s"}, &wall);
    printMetric(metrics[2]);
    printResult(gates.ok(), attempted, failed, metrics);
    return gates.ok() ? 0 : 1;
}

int
runTraced(Workload &wl, const Options &opt, Gates &gates)
{
    Tracer tr;
    wl.setup(&tr);
    TracedRun run;
    auto t0 = Clock::now();
    for (int r = 0; r == 0 || secondsSince(t0) < opt.seconds; ++r) {
        wl.tracedRound(r, tr, run);
        if (r == 0) {
            run.first = run.total;
            tr.sealFile();
        }
        ++run.reps;
    }
    Tracer::Profile ts = tr.profile();
    gates.check(tr.writeChromeTrace(opt.traceFile),
                "cannot write " + opt.traceFile);

    std::vector<Metric> metrics = layerMetrics(ts, run);
    std::cout << opt.workload << " seed " << opt.seed << " (traced)\n";
    printLayerTable(ts, run.reps);
    for (const Metric &m : metrics)
        printMetric(m);
    printResult(gates.ok(), std::max<std::uint64_t>(1, run.api.attempted),
                run.api.failed, metrics);
    return gates.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
        };
        if (const char *v = value("--workload=")) {
            opt.workload = v;
        } else if (const char *v = value("--seed=")) {
            char *end = nullptr;
            opt.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                return usage();
        } else if (const char *v = value("--seconds=")) {
            char *end = nullptr;
            opt.seconds = std::strtod(v, &end);
            if (!*v || *end || !(opt.seconds > 0) || opt.seconds > 600)
                return usage();
            haveSeconds = true;
        } else if (const char *v = value("--trace=")) {
            opt.traceFile = v;
            if (opt.traceFile.empty())
                return usage();
        } else if (const char *v = value("--workdir=")) {
            opt.workdir = v;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else {
            return usage();
        }
    }
    if (opt.smoke && !haveSeconds)
        opt.seconds = 0.05;
    if (opt.workdir.empty())
        opt.workdir = std::filesystem::temp_directory_path().string();

    Gates gates;
    std::unique_ptr<Workload> wl = makeWorkload(opt, gates);
    if (!wl) {
        std::cerr << "e2e: unknown workload '" << opt.workload << "'\n";
        return usage();
    }
    try {
        return opt.traceFile.empty() ? runUntraced(*wl, opt, gates)
                                     : runTraced(*wl, opt, gates);
    } catch (const std::exception &e) {
        std::cerr << "e2e: " << e.what() << "\n";
        return 1;
    }
}
