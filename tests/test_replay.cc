/**
 * @file
 * The trace-replay pipeline: on-disk format round-trips, workload
 * generator determinism, the logical replay engine (windowed vs
 * whole-trace differential, race injection), simulator-accurate replay
 * on pooled Systems, and the wo-replay binary's flag validation.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/drf0_checker.hh"
#include "replay/replay_engine.hh"
#include "replay/system_replay.hh"
#include "replay/trace_format.hh"
#include "replay/trace_gen.hh"
#include "sim/stats.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

namespace {

using namespace wo;

/** Unique path under the gtest temp dir, removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "wo_replay_" + tag + "_" +
                std::to_string(::getpid()) + ".wotrace")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(ReplayFormat, RoundTrip)
{
    ReplayTraceData data;
    data.initials = {{7, 42}, {9, 1}};
    data.threads.resize(3);
    data.threads[0] = {{ReplayOp::LockAcquire, 100, 0},
                       {ReplayOp::Write, 7, 5},
                       {ReplayOp::LockRelease, 100, 0}};
    data.threads[1] = {{ReplayOp::SyncRead, 9, 1},
                       {ReplayOp::Read, 7, 0},
                       {ReplayOp::BarrierWait, 200, 0},
                       {ReplayOp::Rmw, 100, 1}};
    // thread 2 deliberately empty

    TempTrace f("roundtrip");
    ASSERT_TRUE(saveReplayTrace(data, f.path()));

    ReplayTraceData back;
    ASSERT_TRUE(loadReplayTrace(f.path(), back));
    EXPECT_EQ(back.initials, data.initials);
    ASSERT_EQ(back.numThreads(), 3);
    EXPECT_EQ(back.threads[0], data.threads[0]);
    EXPECT_EQ(back.threads[1], data.threads[1]);
    EXPECT_TRUE(back.threads[2].empty());
    EXPECT_EQ(back.totalRecords(), 7u);
}

TEST(ReplayFormat, StreamingReaderSemantics)
{
    ReplayTraceData data;
    data.threads.resize(2);
    for (int i = 0; i < 5; ++i)
        data.threads[0].push_back(
            {ReplayOp::Write, static_cast<Addr>(i), static_cast<Word>(i)});
    data.threads[1].push_back({ReplayOp::Read, 3, 0});

    TempTrace f("stream");
    ASSERT_TRUE(saveReplayTrace(data, f.path()));

    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    EXPECT_EQ(r.numThreads(), 2);
    EXPECT_EQ(r.totalRecords(), 6u);
    EXPECT_EQ(r.remaining(0), 5u);

    ReplayRecord rec;
    ASSERT_TRUE(r.peek(0, rec));
    EXPECT_EQ(rec.addr, 0u);
    EXPECT_EQ(r.remaining(0), 5u); // peek does not consume
    ASSERT_TRUE(r.next(0, rec));
    ASSERT_TRUE(r.next(0, rec));
    EXPECT_EQ(rec.addr, 1u);
    EXPECT_EQ(r.remaining(0), 3u);

    ASSERT_TRUE(r.next(1, rec));
    EXPECT_EQ(rec.op, ReplayOp::Read);
    EXPECT_FALSE(r.next(1, rec)); // exhausted
    EXPECT_FALSE(r.peek(1, rec));

    r.rewind();
    EXPECT_EQ(r.remaining(0), 5u);
    EXPECT_EQ(r.remaining(1), 1u);
    ASSERT_TRUE(r.next(0, rec));
    EXPECT_EQ(rec.addr, 0u);
}

TEST(ReplayFormat, ReaderRefillsAcrossBufferBoundary)
{
    // One thread longer than the reader's refill buffer forces at least
    // two refills; records are checked against their defining formula.
    const std::uint64_t n = ReplayTraceReader::kBufRecords * 2 + 37;
    TempTrace f("refill");
    {
        ReplayTraceWriter w(f.path(), 1);
        w.beginThread(0);
        for (std::uint64_t i = 0; i < n; ++i)
            w.append({ReplayOp::Write, static_cast<Addr>(i & 0xffff),
                      static_cast<Word>(i * 3)});
        ASSERT_TRUE(w.close());
    }
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    EXPECT_EQ(r.totalRecords(), n);
    ReplayRecord rec;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(r.next(0, rec)) << "at record " << i;
        ASSERT_EQ(rec.addr, static_cast<Addr>(i & 0xffff));
        ASSERT_EQ(rec.value, static_cast<Word>(i * 3));
    }
    EXPECT_FALSE(r.next(0, rec));
}

TEST(ReplayGen, DeterministicAndDistinct)
{
    TraceGenConfig cfg;
    cfg.threads = 3;
    cfg.rounds = 20;
    cfg.seed = 5;
    TempTrace a("gen_a"), b("gen_b"), c("gen_c");
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        ASSERT_TRUE(writeWorkloadTrace(wl, a.path(), cfg));
        ASSERT_TRUE(writeWorkloadTrace(wl, b.path(), cfg));
        EXPECT_EQ(slurp(a.path()), slurp(b.path())) << wl;
        TraceGenConfig other = cfg;
        other.seed = 6;
        ASSERT_TRUE(writeWorkloadTrace(wl, c.path(), other));
        if (std::string(wl) == "spinlock") { // seed drives the pattern
            EXPECT_NE(slurp(a.path()), slurp(c.path()));
        }
    }
    EXPECT_FALSE(writeWorkloadTrace("nonsense", a.path(), cfg));
}

TEST(ReplayEngineTest, GeneratedWorkloadsAreRaceFree)
{
    TraceGenConfig cfg;
    cfg.threads = 4;
    cfg.rounds = 30;
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        TempTrace f(std::string("rf_") + wl);
        ASSERT_TRUE(writeWorkloadTrace(wl, f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));
        ReplayOptions opt;
        opt.window = 128;
        ReplayEngine engine(r, opt);
        ReplayResult res = engine.run();
        ASSERT_TRUE(res.ok) << wl << ": " << res.error;
        EXPECT_TRUE(res.raceFree) << wl;
        EXPECT_EQ(res.recordsReplayed, r.totalRecords()) << wl;
        // Satellite invariant: everything appended was either retired
        // or is still resident in the window.
        EXPECT_EQ(res.eventsRetired + engine.trace().resident(),
                  static_cast<std::int64_t>(engine.trace().size()))
            << wl;
        EXPECT_GT(res.eventsRetired, 0) << wl;
        EXPECT_LE(res.windowHighWater, 128 * 2) << wl;
    }
}

TEST(ReplayEngineTest, InjectedRaceIsDetected)
{
    TraceGenConfig cfg;
    cfg.threads = 3;
    cfg.rounds = 10;
    cfg.injectRace = true;
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        TempTrace f(std::string("racy_") + wl);
        ASSERT_TRUE(writeWorkloadTrace(wl, f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));
        ReplayOptions opt;
        opt.window = 64;
        opt.mode = RaceDetectMode::AllRaces;
        ReplayEngine engine(r, opt);
        ReplayResult res = engine.run();
        ASSERT_TRUE(res.ok) << wl << ": " << res.error;
        EXPECT_FALSE(res.raceFree) << wl;
        EXPECT_FALSE(res.races.empty()) << wl;
    }
}

TEST(ReplayEngineTest, WindowedMatchesWholeTraceOracle)
{
    // The tentpole differential: a windowed O(window)-memory run must
    // produce the verdict and race set of the resident whole-trace
    // bitset oracle, on every generated workload.
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        for (bool racy : {false, true}) {
            TraceGenConfig cfg;
            cfg.threads = 3;
            cfg.rounds = 40;
            cfg.injectRace = racy;
            TempTrace f(std::string(racy ? "diff_racy_" : "diff_rf_") +
                        wl);
            ASSERT_TRUE(writeWorkloadTrace(wl, f.path(), cfg));

            // Whole-trace run: window 0 keeps every access resident.
            ReplayTraceReader r0;
            ASSERT_TRUE(r0.open(f.path()));
            ReplayOptions full;
            full.window = 0;
            full.mode = RaceDetectMode::AllRaces;
            ReplayEngine oracleEngine(r0, full);
            ReplayResult fullRes = oracleEngine.run();
            ASSERT_TRUE(fullRes.ok) << fullRes.error;
            EXPECT_EQ(fullRes.eventsRetired, 0);

            Drf0TraceReport oracle =
                checkTraceBitset(oracleEngine.trace());
            std::vector<Race> oracleRaces = oracle.races;
            std::sort(oracleRaces.begin(), oracleRaces.end());
            EXPECT_EQ(fullRes.raceFree, oracle.raceFree);
            EXPECT_EQ(fullRes.races, oracleRaces);

            for (int window : {32, 256}) {
                ReplayTraceReader r1;
                ASSERT_TRUE(r1.open(f.path()));
                ReplayOptions opt = full;
                opt.window = window;
                ReplayEngine engine(r1, opt);
                ReplayResult res = engine.run();
                ASSERT_TRUE(res.ok) << res.error;
                const std::string at =
                    std::string(wl) + " window " + std::to_string(window);
                EXPECT_EQ(res.raceFree, oracle.raceFree) << at;
                EXPECT_EQ(res.races, oracleRaces) << at;
                EXPECT_EQ(res.accesses, fullRes.accesses) << at;
                EXPECT_EQ(res.finalMemory, fullRes.finalMemory) << at;
                EXPECT_LT(res.windowHighWater, fullRes.windowHighWater)
                    << at;
            }
        }
    }
}

TEST(ReplayEngineTest, ResidentHighWaterStaysFlatAsTraceGrows)
{
    // O(window) memory: a trace ten times longer, replayed under the
    // same window, keeps the same resident high-water mark and retires
    // the difference. The window sits well below the shorter trace, so
    // both runs retire.
    const int window = 256;
    ReplayResult runs[2];
    for (int i = 0; i < 2; ++i) {
        TraceGenConfig cfg;
        cfg.threads = 4;
        cfg.rounds = i == 0 ? 200 : 2000;
        TempTrace f(i == 0 ? "flat_short" : "flat_long");
        ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));
        ReplayOptions opt;
        opt.window = window;
        runs[i] = ReplayEngine(r, opt).run();
        ASSERT_TRUE(runs[i].ok) << runs[i].error;
        EXPECT_TRUE(runs[i].raceFree);
        EXPECT_GT(runs[i].eventsRetired, 0);
    }
    const ReplayResult &shortRun = runs[0], &longRun = runs[1];
    EXPECT_GT(longRun.accesses, 9 * shortRun.accesses);
    EXPECT_EQ(longRun.windowHighWater, shortRun.windowHighWater);
    EXPECT_LE(longRun.windowHighWater, 2 * window);
    EXPECT_GT(longRun.eventsRetired, 9 * shortRun.eventsRetired);
}

TEST(SystemReplayTest, SpinlockOnBusAndNet)
{
    TraceGenConfig cfg;
    cfg.threads = 2;
    cfg.rounds = 8;
    TempTrace f("sysspin");
    ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));

    for (const char *machine : {"bus", "net"}) {
        SystemReplayOptions opt;
        opt.machine = machine;
        opt.window = 64;
        opt.chunkTicks = 512;
        SystemReplayResult res = replayOnSystem(r, opt);
        ASSERT_TRUE(res.ok) << machine << ": " << res.error;
        EXPECT_TRUE(res.raceFree) << machine;
        EXPECT_GT(res.accesses, 0u) << machine;
        EXPECT_GT(res.eventsRetired, 0) << machine;
    }
}

TEST(SystemReplayTest, WindowedVerdictMatchesUnwindowed)
{
    // Same trace, same machine/seed: the windowed System replay must
    // reach the verdict of the whole-trace run (the simulation itself
    // is deterministic, so the verdicts compare exactly).
    for (bool racy : {false, true}) {
        TraceGenConfig cfg;
        cfg.threads = 2;
        cfg.rounds = 30;
        cfg.injectRace = racy;
        TempTrace f(racy ? "sysdiff_r" : "sysdiff");
        ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));

        SystemReplayOptions full;
        full.window = 0;
        full.mode = RaceDetectMode::AllRaces;
        SystemReplayResult a = replayOnSystem(r, full);
        ASSERT_TRUE(a.ok) << a.error;

        SystemReplayOptions windowed = full;
        windowed.window = 64;
        windowed.chunkTicks = 256;
        SystemReplayResult b = replayOnSystem(r, windowed);
        ASSERT_TRUE(b.ok) << b.error;

        EXPECT_EQ(a.raceFree, b.raceFree) << "racy=" << racy;
        EXPECT_EQ(a.races, b.races) << "racy=" << racy;
        EXPECT_EQ(a.accesses, b.accesses) << "racy=" << racy;
        EXPECT_EQ(a.finishTick, b.finishTick) << "racy=" << racy;
        EXPECT_EQ(a.raceFree, !racy) << "racy=" << racy;
        if (racy) {
            EXPECT_FALSE(b.races.empty());
        }
        EXPECT_EQ(a.eventsRetired, 0);
        EXPECT_GT(b.eventsRetired, 0);
        EXPECT_LT(b.windowHighWater, a.windowHighWater);
    }
}

TEST(SystemReplayTest, DrainAgreesAcrossChunksAndWindows)
{
    // One simulator execution drained at every chunk size and window, in
    // both detector modes. The simulation does not depend on the chunk,
    // so AllRaces must report exactly checkTrace()'s race set, FirstRace
    // the same race at every chunking, and the retention counters (facts
    // of admission) must not depend on the mode. FirstRace stops
    // counting at its race, whose position in the feed order depends on
    // the chunking, so only a race-free or AllRaces run counts every
    // access.
    for (bool racy : {false, true}) {
        TraceGenConfig gen;
        gen.threads = 3;
        gen.rounds = 6;
        gen.injectRace = racy;
        TempTrace f(racy ? "chunks_r" : "chunks");
        ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), gen));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));
        MultiProgram program = buildReplayProgram(r, "chunks");
        for (const char *machine : {"net", "net-l2-moesi", "bus-cap"}) {
            SystemReplayOptions opt;
            opt.machine = machine;
            System whole(program, machineOrThrow(machine).config(
                                      opt.policy, opt.netSeed));
            ASSERT_TRUE(whole.run()) << machine;
            Drf0TraceReport oracle = checkTrace(whole.trace());
            std::sort(oracle.races.begin(), oracle.races.end());
            EXPECT_EQ(oracle.raceFree, !racy) << machine;
            const int total = whole.trace().size();
            std::optional<std::vector<Race>> firstRace;
            for (int window : {1, 64, 0}) {
                for (Tick chunk : {1, 7, 64, 4096}) {
                    opt.window = window;
                    opt.chunkTicks = chunk;
                    SystemReplayResult runs[2];
                    for (bool all : {false, true}) {
                        opt.mode = all ? RaceDetectMode::AllRaces
                                       : RaceDetectMode::FirstRace;
                        std::ostringstream at;
                        at << machine << " racy=" << racy
                           << " window=" << window << " chunk=" << chunk
                           << " all=" << all;
                        SystemReplayResult &res = runs[all];
                        res = replayOnSystem(r, opt);
                        ASSERT_TRUE(res.ok) << at.str() << ": " << res.error;
                        EXPECT_EQ(res.raceFree, oracle.raceFree) << at.str();
                        if (all || !racy) {
                            EXPECT_EQ(res.accesses,
                                      static_cast<std::uint64_t>(total))
                                << at.str();
                        }
                        if (all) {
                            EXPECT_EQ(res.races, oracle.races) << at.str();
                        } else if (!firstRace) {
                            firstRace = res.races;
                        } else {
                            EXPECT_EQ(res.races, *firstRace) << at.str();
                        }
                        if (window == 0) {
                            EXPECT_EQ(res.windowHighWater, total) << at.str();
                        }
                    }
                    EXPECT_EQ(runs[0].windowHighWater, runs[1].windowHighWater)
                        << machine << " window=" << window
                        << " chunk=" << chunk;
                    EXPECT_EQ(runs[0].eventsRetired, runs[1].eventsRetired)
                        << machine << " window=" << window
                        << " chunk=" << chunk;
                }
            }
        }
    }
}

TEST(SystemReplayTest, BarrierTraceCompletes)
{
    TraceGenConfig cfg;
    cfg.threads = 3;
    cfg.rounds = 4;
    TempTrace f("sysbar");
    ASSERT_TRUE(writeWorkloadTrace("barrier", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    SystemReplayOptions opt;
    opt.window = 0;
    opt.mode = RaceDetectMode::AllRaces;
    SystemReplayResult res = replayOnSystem(r, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.raceFree);
}

TEST(SystemReplayTest, SystemStreamingExportsRetentionStats)
{
    // The System-level satellite counters appear exactly when retirement
    // happened (whole-trace runs keep their reports byte-identical).
    TraceGenConfig cfg;
    cfg.threads = 2;
    cfg.rounds = 8;
    TempTrace f("sysstats");
    ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    MultiProgram program = buildReplayProgram(r, "stats-replay");

    SystemConfig cfg2 = machineOrThrow("bus").config(PolicyKind::Def2Drf0, 1);
    System sys(program, cfg2);
    StreamingDrf0Checker chk(program.numProcs());
    ASSERT_TRUE(sys.runStreaming(256, [&](System &s) {
        chk.drainWindow(s.trace(), s.eventQueue().now());
        int excess = s.trace().resident() - 64;
        if (excess > 0)
            s.mutableTrace().popFront(
                std::min(chk.retireReady(s.trace()), excess));
    }));
    chk.finish(sys.trace());
    EXPECT_TRUE(chk.raceFree());

    std::ostringstream oss;
    sys.stats().dumpJson(oss);
    EXPECT_NE(oss.str().find("system.trace_events_retired"),
              std::string::npos);
    EXPECT_NE(oss.str().find("system.window_high_water"),
              std::string::npos);

    // Retirement never happened -> no counters in the report.
    System plain(program, machineOrThrow("bus").config(
                              PolicyKind::Def2Drf0, 1));
    ASSERT_TRUE(plain.run());
    std::ostringstream oss2;
    plain.stats().dumpJson(oss2);
    EXPECT_EQ(oss2.str().find("system.trace_events_retired"),
              std::string::npos);
}

#ifdef WO_REPLAY_TRACE_DIR
TEST(ReplayFormat, BundledTracesStayReplayable)
{
    // The committed traces under tests/replay/ pin the WOTRACE1 on-disk
    // layout: any loader or format change that silently breaks already-
    // recorded files fails here (and in the CI regression job that
    // replays the same files) rather than in the field.
    struct Bundled
    {
        const char *file;
        int threads;
    };
    const Bundled bundled[] = {
        {"/spinlock_small.wotrace", 2},
        {"/barrier_small.wotrace", 3},
    };
    for (const Bundled &b : bundled) {
        const std::string path =
            std::string(WO_REPLAY_TRACE_DIR) + b.file;
        ReplayTraceData data;
        ASSERT_TRUE(loadReplayTrace(path, data)) << path;
        EXPECT_EQ(data.numThreads(), b.threads) << path;
        EXPECT_GT(data.totalRecords(), 0u) << path;

        ReplayTraceReader reader;
        ASSERT_TRUE(reader.open(path)) << path;
        ReplayOptions opt;
        opt.window = 32;
        opt.mode = RaceDetectMode::AllRaces;
        ReplayEngine engine(reader, opt);
        ReplayResult res = engine.run();
        ASSERT_TRUE(res.ok) << path << ": " << res.error;
        EXPECT_TRUE(res.raceFree) << path;
        EXPECT_EQ(res.recordsReplayed, data.totalRecords()) << path;
    }
}
#endif // WO_REPLAY_TRACE_DIR

#if defined(WO_REPLAY_BIN) && defined(WO_REPLAY_TRACE_DIR)
/** Exit status of the wo-replay binary run with @p args. */
int
woReplayExit(const std::string &args)
{
    std::string cmd = std::string(WO_REPLAY_BIN) + " " + args +
                      " > /dev/null 2> /dev/null";
    int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd;
    return WEXITSTATUS(rc);
}

TEST(WoReplayTool, BadNumericFlagsExitTwo)
{
    // A malformed number must not silently become 0: --window=0 means
    // "retain the whole trace", so a typo would drop the memory bound.
    const std::string trace =
        std::string(WO_REPLAY_TRACE_DIR) + "/spinlock_small.wotrace";
    EXPECT_EQ(woReplayExit("verify --window=32 " + trace), 0);
    EXPECT_EQ(woReplayExit("verify --window=abc " + trace), 2);
    EXPECT_EQ(woReplayExit("verify --window= " + trace), 2);
    EXPECT_EQ(woReplayExit("verify --window=32k " + trace), 2);
    EXPECT_EQ(woReplayExit("verify --seed=zz " + trace), 2);
    EXPECT_EQ(woReplayExit("sim --window=x " + trace), 2);
    EXPECT_EQ(woReplayExit("sim --chunk=abc " + trace), 2);
    EXPECT_EQ(woReplayExit("sim --seed=-1 " + trace), 2);

    TempTrace out("badflags");
    for (const char *flag : {"--threads=two", "--rounds=", "--ops=4.5",
                             "--seed=0x10"})
        EXPECT_EQ(woReplayExit("gen " + std::string(flag) + " " +
                               out.path()),
                  2)
            << flag;
}

/** A copy of the bundled spinlock trace, corrupted by @p mutate. */
std::string
corruptTrace(const TempTrace &out, void (*mutate)(std::string &))
{
    std::string bytes = slurp(std::string(WO_REPLAY_TRACE_DIR) +
                              "/spinlock_small.wotrace");
    mutate(bytes);
    std::ofstream(out.path(), std::ios::binary) << bytes;
    return out.path();
}

/** Offset of thread 0's {offset, count} entry in the thread table. */
std::size_t
threadTableOffset(const std::string &bytes)
{
    std::uint32_t ninitial = 0;
    std::memcpy(&ninitial, bytes.data() + 12, 4); // little-endian host
    return 16 + std::size_t{ninitial} * 12;
}

/** A corrupt trace is malformed input: the loader refuses it and every
 * wo-replay reader exits 2, never reporting a verdict on what it read. */
void
expectRejected(const std::string &path)
{
    ReplayTraceData data;
    EXPECT_FALSE(loadReplayTrace(path, data));
    EXPECT_EQ(woReplayExit("verify " + path), 2);
    EXPECT_EQ(woReplayExit("sim --machine=net " + path), 2);
}

TEST(WoReplayTool, TruncatedTraceExitsTwo)
{
    TempTrace out("truncated");
    expectRejected(corruptTrace(
        out, [](std::string &b) { b.resize(b.size() / 2); }));
}

TEST(WoReplayTool, ForgedRecordCountExitsTwo)
{
    TempTrace out("forged_count");
    expectRejected(corruptTrace(out, [](std::string &b) {
        const std::uint64_t count = std::uint64_t{1} << 60;
        std::memcpy(b.data() + threadTableOffset(b) + 8, &count, 8);
    }));
}

TEST(WoReplayTool, UnknownOpByteExitsTwo)
{
    TempTrace out("bad_op");
    expectRejected(corruptTrace(out, [](std::string &b) {
        std::uint64_t base = 0;
        std::memcpy(&base, b.data() + threadTableOffset(b), 8);
        b[static_cast<std::size_t>(base)] = 0x7f;
    }));
}
#endif // WO_REPLAY_BIN && WO_REPLAY_TRACE_DIR

} // namespace
