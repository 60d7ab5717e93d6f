/**
 * @file
 * The quantitative comparison the paper's conclusion calls for: execution
 * time of the same DRF0 workloads under SC, Definition 1 weak ordering,
 * and the two Definition 2 implementations, sweeping synchronization
 * frequency and memory latency.
 *
 * The point of weak ordering is overlap between synchronization points;
 * the point of the new definition's implementation is overlap ACROSS
 * them (the issuing processor does not wait for its pending accesses at
 * a synchronization operation).
 */

#include <string>

#include "bench_util.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from --threads/--seed

/** One campaign (and its worker threads) for the whole table sweep, so
 * the workers' SystemPools persist across avgTicks() calls. Jobs derive
 * everything from the job index, so the hoist is output-neutral. */
Campaign *g_campaign = nullptr;

RandomWorkloadConfig
workloadCfg(int sections, int ops, std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.numLocks = 4;
    cfg.locsPerLock = 4;
    cfg.privateLocs = 6;
    cfg.sectionsPerProc = sections;
    cfg.opsPerSection = ops;
    cfg.privateOpsBetween = 6;
    cfg.seed = seed;
    return cfg;
}

std::uint64_t
avgTicks(const MachineSpec &m, PolicyKind pk, int sections, int ops,
         Tick net_base, int runs)
{
    // Seed sweep as a campaign: one job per seed, merged in seed order
    // so the average is bit-identical to the old serial loop.
    struct Run
    {
        std::uint64_t ticks = 0;
        int completed = 0;
    };
    Run sum = g_campaign->reduce<Run, Run>(
        runs,
        [&](const CampaignJob &jb) {
            int s = jb.index + 1;
            MultiProgram mp =
                randomDrf0Program(workloadCfg(sections, ops, s));
            SystemConfig cfg = m.config(pk, s * 17 + 3);
            cfg.net.base = net_base;
            cfg.net.jitter = net_base;
            cfg.maxTicks = 50000000;
            // Pooled: the worker's cached System for this cell is
            // reset instead of rebuilt (identical replay; net.base
            // changes between sweep points force one rebuild each).
            System &sys = workerSystemPool().acquire(
                m.name + "/" + toString(pk), mp, cfg);
            Run one;
            if (!sys.run())
                return one;
            one.ticks = sys.finishTick();
            one.completed = 1;
            return one;
        },
        Run{}, [](Run &acc, const Run &one) {
            acc.ticks += one.ticks;
            acc.completed += one.completed;
        });
    return sum.completed ? sum.ticks / sum.completed : 0;
}

void
printThroughputTables(const MachineSpec &m, bool named)
{
    const std::string suffix = named ? " [machine=" + m.name + "]" : "";
    const int runs = 12;
    const std::vector<PolicyKind> policies = {
        PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
        PolicyKind::Def2Drf1};

    benchutil::banner(
        "Execution time vs synchronization frequency (net latency 6, " +
        std::to_string(runs) + " workloads/point, avg finish ticks)" +
        suffix);
    {
        benchutil::Table t({"critical sections/proc", "SC", "WO-Def1",
                            "WO-Def2-DRF0", "WO-Def2-DRF1"});
        for (int sections : {1, 2, 4, 8}) {
            std::vector<std::string> row = {std::to_string(sections)};
            for (PolicyKind pk : policies)
                row.push_back(std::to_string(
                    avgTicks(m, pk, sections, 3, 6, runs)));
            t.addRow(row);
        }
        t.print();
    }

    benchutil::banner(
        "Execution time vs memory latency (4 sections/proc, avg finish "
        "ticks)" + suffix);
    {
        benchutil::Table t({"net base latency", "SC", "WO-Def1",
                            "WO-Def2-DRF0", "WO-Def2-DRF1"});
        for (Tick lat : {2, 6, 12, 24, 48}) {
            std::vector<std::string> row = {std::to_string(lat)};
            for (PolicyKind pk : policies)
                row.push_back(std::to_string(
                    avgTicks(m, pk, 4, 3, lat, runs)));
            t.addRow(row);
        }
        t.print();
    }
    std::cout <<
        "\nExpected shape: SC is slowest and degrades fastest with "
        "latency (no overlap);\nboth weak orderings beat it; the "
        "Definition 2 implementations match or beat\nDefinition 1, with "
        "the gap growing as synchronization gets more frequent\n(Def1 "
        "pays a full pipeline drain per synchronization operation).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    wo::Campaign campaign({g_opts.threads, g_opts.baseSeed});
    g_campaign = &campaign;
    for (const wo::MachineSpec *m :
         wo::benchutil::machinesOr(g_opts, "net-cold"))
        printThroughputTables(*m, !g_opts.machines.empty());
    return 0;
}
