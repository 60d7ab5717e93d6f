/**
 * @file
 * Contract verification sweep (Lemma 1 / Appendix B, and the Section 6
 * claim that Definition 1 hardware satisfies Definition 2 w.r.t. DRF0):
 *
 * every execution the weakly ordered implementations produce for random
 * DRF0 workloads must appear sequentially consistent — and the relaxed
 * machine, given racy code, must not.
 */

#include <string>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from flags

RandomWorkloadConfig
workloadCfg(std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.numLocks = 2;
    cfg.locsPerLock = 3;
    cfg.sectionsPerProc = 4;
    cfg.opsPerSection = 3;
    cfg.seed = seed;
    return cfg;
}

void
printContractTable(const MachineSpec &m, bool named)
{
    const int runs = 40;
    benchutil::banner(
        "Definition 2 contract: random DRF0 workloads, " +
        std::to_string(runs) + " seeds per policy" +
        (named ? " [machine=" + m.name + "]" : ""));
    benchutil::Table t(
        {"policy", "runs appearing SC", "avg finish ticks"});
    for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def1,
                          PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        // Each seed is one campaign job: simulate, then verify the
        // execution against the Definition 2 contract.
        struct Run
        {
            std::uint64_t ticks = 0;
            int sc = 0;
        };
        Run sum = g_opts.campaign.reduce<Run, Run>(
            runs,
            [&](const CampaignJob &jb) {
                int s = jb.index + 1;
                MultiProgram mp = randomDrf0Program(workloadCfg(s));
                SystemConfig cfg = m.config(pk, s * 31 + 7);
                System sys(mp, cfg);
                Run one;
                if (!sys.run())
                    return one;
                one.ticks = sys.finishTick();
                one.sc = verifySc(sys.trace()).sc() ? 1 : 0;
                return one;
            },
            Run{}, [](Run &acc, const Run &one) {
                acc.ticks += one.ticks;
                acc.sc += one.sc;
            });
        t.addRow({toString(pk),
                  std::to_string(sum.sc) + "/" + std::to_string(runs),
                  std::to_string(sum.ticks / runs)});
    }
    t.print();

    // The negative control: racy code on the relaxed machine. The
    // clause of sb.litmus is Dekker's SC-forbidden both-zero outcome.
    const litmus_dsl::CompiledLitmus sb = litmus_dsl::compileLitmusFile(
        std::string(WO_LITMUS_DIR) + "/sb.litmus");
    const int neg_runs = 100;
    int violations = g_opts.campaign.reduce<int, int>(
        neg_runs,
        [&](const CampaignJob &jb) {
            SystemConfig cfg = machineOrThrow("net-u").config(
                PolicyKind::Relaxed, jb.index + 1);
            cfg.net.jitter = 8; // the control's historical jitter
            System sys(sb.program, cfg);
            if (!sys.run())
                return 0;
            return litmus_dsl::evalCond(sb.clause.cond, sys.result(),
                                        sb.addrOf)
                       ? 1
                       : 0;
        },
        0, [](int &acc, const int &one) { acc += one; });
    std::cout << "\nNegative control: Dekker (racy) on the relaxed "
                 "machine violated SC in "
              << violations << "/" << neg_runs << " runs.\n";
    std::cout << "\nExpected shape: 100% SC for SC/Def1/Def2 policies "
                 "(the contract holds,\nincluding for Definition 1 "
                 "hardware); a nonzero violation count for the\n"
                 "relaxed machine on racy code.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    for (const wo::MachineSpec *m :
         wo::benchutil::machinesOr(g_opts, "net-cold"))
        printContractTable(*m, !g_opts.machines.empty());
    return 0;
}
