/**
 * @file
 * Cache-capacity ablation: the Section 5 mechanisms must stay correct
 * (and degrade gracefully) as caches shrink and eviction pressure grows
 * — reserved lines are never flushed, so tiny caches interact with the
 * reserve machinery in the worst possible way.
 */

#include <string>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from flags

struct CapPoint
{
    std::uint64_t finish = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t misses = 0;
    int completed = 0;
    int sc = 0;
    int runs = 0;
};

CapPoint
runPoint(const MachineSpec &m, int num_sets, int ways, PolicyKind pk,
         int runs)
{
    // One campaign job per seed; the order-stable reduce makes the
    // sums identical to the old serial loop at any thread count.
    auto job = [&](const CampaignJob &jb) {
        int s = jb.index + 1;
        RandomWorkloadConfig w;
        w.numProcs = 4;
        w.numLocks = 2;
        w.locsPerLock = 4;
        w.privateLocs = 6;
        w.sectionsPerProc = 4;
        w.privateOpsBetween = 5;
        w.seed = s;
        SystemConfig cfg = m.config(pk, s * 11 + 1);
        cfg.cache.numSets = num_sets;
        cfg.cache.ways = ways;
        cfg.maxTicks = 50000000;
        System sys(randomDrf0Program(w), cfg);
        CapPoint one;
        if (!sys.run())
            return one;
        ++one.completed;
        one.finish = sys.finishTick();
        for (int c = 0; c < 4; ++c) {
            std::string name = "cache" + std::to_string(c);
            one.writebacks += sys.stats().get(name + ".writebacks");
            one.misses += sys.stats().get(name + ".misses");
        }
        if (verifySc(sys.trace()).sc())
            ++one.sc;
        return one;
    };
    CapPoint init;
    init.runs = runs;
    return g_opts.campaign.reduce<CapPoint, CapPoint>(
        runs, job, init, [](CapPoint &acc, const CapPoint &one) {
            acc.finish += one.finish;
            acc.writebacks += one.writebacks;
            acc.misses += one.misses;
            acc.completed += one.completed;
            acc.sc += one.sc;
        });
}

void
printCapacityTable(const MachineSpec &m, bool named)
{
    const int runs = 10;
    benchutil::banner(
        "Capacity sweep: WO-Def2-DRF0 under eviction pressure (" +
        std::to_string(runs) + " random DRF0 workloads/point)" +
        (named ? " [machine=" + m.name + "]" : ""));
    benchutil::Table t({"sets x ways", "completed", "appear SC",
                        "avg finish", "avg misses", "avg writebacks"});
    struct Geo
    {
        int sets, ways;
    };
    for (Geo g : {Geo{1, 2}, Geo{2, 2}, Geo{4, 2}, Geo{4, 4}, Geo{0, 0}}) {
        CapPoint pt =
            runPoint(m, g.sets, g.ways, PolicyKind::Def2Drf0, runs);
        std::string label = g.sets == 0
                                ? "unbounded"
                                : std::to_string(g.sets) + "x" +
                                      std::to_string(g.ways);
        t.addRow({label,
                  std::to_string(pt.completed) + "/" +
                      std::to_string(pt.runs),
                  std::to_string(pt.sc) + "/" +
                      std::to_string(pt.completed),
                  pt.completed
                      ? std::to_string(pt.finish / pt.completed)
                      : "-",
                  pt.completed
                      ? std::to_string(pt.misses / pt.completed)
                      : "-",
                  pt.completed
                      ? std::to_string(pt.writebacks / pt.completed)
                      : "-"});
    }
    t.print();
    std::cout << "\nExpected shape: every geometry completes and appears "
                 "SC; shrinking the cache\nraises misses and writebacks "
                 "monotonically, while finish time stays flat\ndown to "
                 "4x2 and rises below it.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    for (const wo::MachineSpec *m :
         wo::benchutil::machinesOr(g_opts, "net-cold"))
        printCapacityTable(*m, !g_opts.machines.empty());
    return 0;
}
