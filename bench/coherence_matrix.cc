/**
 * @file
 * Protocol x hierarchy matrix benchmark: what MESI / MOESI / MESIF buy
 * (or cost) over the MSI baseline, at one and two cache levels.
 *
 *   $ coherence_matrix [--quick] [--json=FILE] [--seed=S]
 *
 * One cell per (protocol, cache levels) over a fixed workload mix that
 * spans the sharing patterns the protocols were designed around:
 *
 *   private   each processor read-modify-writes its own lines
 *             (MESI-family silent E->M upgrades vs MSI's second
 *             directory round trip);
 *   migratory a TAS lock + counter bouncing between processors
 *             (MOESI keeps dirty lines cache-resident);
 *   readfan   one writer, many repeat readers (MESIF forwards, MOESI
 *             serves from O without writing back);
 *   barrier   barrier(4), a balanced mix of all of the above.
 *
 * Every job is run once for verification (all processors halt, the
 * end-of-run coherence audit is clean) while per-protocol stats are
 * summed, then the whole cell's job list is re-run and wall-timed for
 * jobs/sec. The table and JSON record per-cell L1 hit rate, directory
 * invalidations/recalls/writebacks, summed finish ticks, jobs/sec, and
 * each cell's finish-tick delta against the same-level MSI baseline
 * (negative = faster than MSI).
 *
 * --json=FILE dumps the same numbers as JSON; --quick shrinks
 * seeds/reps for CI smoke runs with the identical schema.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cpu/program_builder.hh"
#include "sim/stats.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

bool g_quick = false;        ///< --quick
std::uint64_t g_baseSeed = 1; ///< --seed=S
std::string g_jsonFile;       ///< --json=FILE; empty = no dump

/** Each processor accumulates into its own pair of lines: no sharing,
 * every store after the first is a hit-or-upgrade. */
MultiProgram
privateAccumulate(int num_procs, int rounds)
{
    MultiProgram mp("private-accumulate");
    for (int p = 0; p < num_procs; ++p) {
        ProgramBuilder b;
        Addr a = static_cast<Addr>(2 * p);
        Addr c = static_cast<Addr>(2 * p + 1);
        b.movi(0, 0);
        for (int r = 0; r < rounds; ++r) {
            b.load(1, a).addi(1, 1, 1).storeReg(a, 1);
            b.load(2, c).addi(2, 2, 2).storeReg(c, 2);
        }
        b.halt();
        mp.addProgram(b.build());
    }
    return mp;
}

/** One writer publishes a block; every reader re-reads it repeatedly
 * (the readers spin on a sync flag first, so the block is stable). */
MultiProgram
readFan(int num_readers, int rounds)
{
    constexpr Addr kFlag = 32;
    MultiProgram mp("read-fan");
    ProgramBuilder w;
    w.store(0, 7).store(1, 9).unset(kFlag, 1).halt();
    mp.addProgram(w.build());
    for (int p = 0; p < num_readers; ++p) {
        ProgramBuilder b;
        b.label("spin").test(0, kFlag).beq(0, 0, "spin");
        for (int r = 0; r < rounds; ++r)
            b.load(1, 0).load(2, 1);
        b.halt();
        mp.addProgram(b.build());
    }
    return mp;
}

struct Workload
{
    const char *name;
    MultiProgram prog;
};

struct Cell
{
    ProtocolKind proto;
    int levels;
};

std::uint64_t
sumPrefixed(const StatSet &stats, const std::string &prefix,
            const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : stats.all()) {
        if (name.rfind(prefix, 0) == 0 &&
            name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    }
    return sum;
}

SystemConfig
cellConfig(const Cell &cell, std::uint64_t seed)
{
    SystemConfig cfg =
        machineOrThrow("net-cold").config(PolicyKind::Def2Drf0, seed);
    cfg.protocol = cell.proto;
    cfg.cacheLevels = cell.levels;
    return cfg;
}

int
run()
{
    const int seeds = g_quick ? 2 : 10;
    const int reps = g_quick ? 1 : 3;

    std::vector<Workload> workloads;
    workloads.push_back({"private", privateAccumulate(4, 6)});
    workloads.push_back({"migratory", lockCounter(LockKind::Tas, 4, 3)});
    workloads.push_back({"readfan", readFan(3, 6)});
    workloads.push_back({"barrier", barrier(4)});

    std::vector<Cell> cells;
    for (int levels : {1, 2}) {
        for (ProtocolKind k :
             {ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Moesi,
              ProtocolKind::Mesif})
            cells.push_back({k, levels});
    }

    StatSet out;
    out.set("quick", g_quick ? 1 : 0);
    out.set("seeds", seeds);
    out.set("jobs_per_cell",
            static_cast<std::uint64_t>(workloads.size()) * seeds);

    benchutil::banner("protocol x hierarchy matrix (net-cold base, "
                      "WO-Def2-DRF0)");
    benchutil::Table table({"proto", "levels", "l1 hit%", "invs",
                            "recalls", "wbacks", "ticks", "jobs/s",
                            "dticks vs msi"});

    std::vector<std::uint64_t> msi_ticks(3, 0); // per level

    for (const Cell &cell : cells) {
        std::string key = std::string("matrix.") + toString(cell.proto) +
                          ".l" + std::to_string(cell.levels);

        // Verification pass: every job must complete with a clean
        // coherence audit; protocol stats are summed on the way.
        std::uint64_t hits = 0, misses = 0, invs = 0, recalls = 0,
                      wbacks = 0, ticks = 0;
        for (const Workload &w : workloads) {
            for (int s = 0; s < seeds; ++s) {
                SystemConfig cfg =
                    cellConfig(cell, g_baseSeed + s);
                System sys(w.prog, cfg);
                if (!sys.run()) {
                    std::cerr << "FAIL: " << w.name << " did not finish "
                              << "under " << toString(cell.proto) << "/L"
                              << cell.levels << " seed "
                              << g_baseSeed + s << "\n";
                    return 1;
                }
                auto problems = sys.auditCoherence();
                if (!problems.empty()) {
                    std::cerr << "FAIL: coherence audit under "
                              << toString(cell.proto) << "/L"
                              << cell.levels << ":\n";
                    for (const auto &p : problems)
                        std::cerr << "  " << p << "\n";
                    return 1;
                }
                const StatSet &st = sys.stats();
                hits += sumPrefixed(st, "cache", ".hits");
                misses += sumPrefixed(st, "cache", ".misses");
                invs += st.get("dir0.invalidations");
                recalls += st.get("dir0.recalls");
                wbacks += st.get("dir0.writebacks") +
                          sumPrefixed(st, "l2cache", ".writebacks");
                ticks += sys.finishTick();
            }
        }

        // Timing pass: wall-time the whole job list, best of reps.
        std::uint64_t best_ns = ~std::uint64_t(0);
        for (int r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            for (const Workload &w : workloads) {
                for (int s = 0; s < seeds; ++s) {
                    System sys(w.prog,
                               cellConfig(cell, g_baseSeed + s));
                    sys.run();
                }
            }
            auto t1 = std::chrono::steady_clock::now();
            auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count();
            best_ns =
                std::min(best_ns, static_cast<std::uint64_t>(ns));
        }
        std::uint64_t jobs = workloads.size() * seeds;
        std::uint64_t jobs_per_sec =
            best_ns ? jobs * 1000000000ull / best_ns : 0;

        std::uint64_t hit_permille =
            (hits + misses) ? hits * 1000 / (hits + misses) : 0;
        if (cell.proto == ProtocolKind::Msi)
            msi_ticks[cell.levels] = ticks;
        std::uint64_t base = msi_ticks[cell.levels];
        std::int64_t dticks_permille =
            base ? (static_cast<std::int64_t>(ticks) -
                    static_cast<std::int64_t>(base)) *
                       1000 / static_cast<std::int64_t>(base)
                 : 0;

        out.set(key + ".hit_permille", hit_permille);
        out.set(key + ".invalidations", invs);
        out.set(key + ".recalls", recalls);
        out.set(key + ".writebacks", wbacks);
        out.set(key + ".finish_ticks", ticks);
        out.set(key + ".jobs_per_sec", jobs_per_sec);
        out.set(key + ".dticks_permille_signed_plus1000",
                static_cast<std::uint64_t>(dticks_permille + 1000));

        std::ostringstream hit, dt;
        hit << hit_permille / 10 << "." << hit_permille % 10;
        std::int64_t ap =
            dticks_permille < 0 ? -dticks_permille : dticks_permille;
        dt << (dticks_permille < 0 ? "-" : "+") << ap / 10 << "."
           << ap % 10 << "%";
        table.addRow({toString(cell.proto),
                      std::to_string(cell.levels), hit.str(),
                      std::to_string(invs), std::to_string(recalls),
                      std::to_string(wbacks), std::to_string(ticks),
                      std::to_string(jobs_per_sec),
                      cell.proto == ProtocolKind::Msi ? "-" : dt.str()});
    }
    table.print();

    if (g_jsonFile.empty())
        return 0;
    std::ofstream json(g_jsonFile);
    if (!json) {
        std::cerr << "coherence_matrix: cannot write " << g_jsonFile << "\n";
        return 2;
    }
    out.dumpJson(json);
    json << "\n";
    std::cout << "\njson written to " << g_jsonFile << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        g_baseSeed = consumeSeedFlag(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "coherence_matrix: " << e.what() << "\n";
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            g_quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            g_jsonFile = arg.substr(7);
        } else {
            std::cerr << "usage: coherence_matrix [--quick] [--json=FILE] "
                         "[--seed=S]\n";
            return 2;
        }
    }
    return run();
}
