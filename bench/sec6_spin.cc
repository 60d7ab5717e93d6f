/**
 * @file
 * Section 6 reproduction: repeated testing of a synchronization variable.
 *
 * The DRF0 example implementation treats ALL synchronization operations
 * as writes, so the Test of a test-and-test&set lock (or a barrier-count
 * spin) serializes and ping-pongs the line exclusively between spinners —
 * "a significant performance degradation". The refined implementation
 * (read-only syncs treated as reads, no reserve) removes that
 * serialization without giving up the DRF0 guarantee.
 */

#include <string>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from flags

struct SpinResult
{
    Tick finish = 0;
    std::uint64_t counter = 0;
    bool sc = false;
    bool completed = false;
};

SpinResult
runSpin(const MachineSpec &m, const MultiProgram &mp, PolicyKind pk,
        std::uint64_t seed)
{
    SystemConfig cfg = m.config(pk, seed);
    cfg.maxTicks = 20000000;
    System sys(mp, cfg);
    SpinResult r;
    r.completed = sys.run();
    if (!r.completed)
        return r;
    r.finish = sys.finishTick();
    r.counter = sys.result().finalMemory.at(kLockCounterAddr);
    r.sc = verifySc(sys.trace()).sc();
    return r;
}

void
printSec6Table(const MachineSpec &m, bool named)
{
    const int procs = 4, rounds = 4;
    benchutil::banner(
        "Section 6: spin-lock counter, " + std::to_string(procs) +
        " processors x " + std::to_string(rounds) + " rounds" +
        (named ? " [machine=" + m.name + "]" : ""));
    benchutil::Table t({"workload", "policy", "finish ticks",
                        "final counter", "appears SC"});
    struct W
    {
        std::string label;
        MultiProgram mp;
    };
    std::vector<W> workloads;
    workloads.push_back(
        {"TAS spin", lockCounter(LockKind::Tas, procs, rounds)});
    workloads.push_back({"Test-and-TAS spin",
                         lockCounter(LockKind::Tttas, procs, rounds)});
    for (const auto &w : workloads) {
        for (PolicyKind pk :
             {PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
              PolicyKind::Def2Drf1}) {
            SpinResult r = runSpin(m, w.mp, pk, 1);
            if (!r.completed) {
                t.addRow({w.label, toString(pk), "DID NOT FINISH", "-",
                          "-"});
                continue;
            }
            if (r.counter != static_cast<std::uint64_t>(procs * rounds))
                std::cerr << "BUG: lost increments under "
                          << toString(pk) << "\n";
            t.addRow({w.label, toString(pk), std::to_string(r.finish),
                      std::to_string(r.counter), r.sc ? "yes" : "NO"});
        }
    }
    t.print();
    std::cout <<
        "\nExpected shape: on the Test-and-TAS workload the refined "
        "implementation\n(WO-Def2-DRF1) beats the DRF0 example "
        "implementation (WO-Def2-DRF0), whose\nread-only Tests serialize "
        "as writes; all policies keep the counter exact\n(mutual "
        "exclusion holds on every conforming implementation).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    for (const wo::MachineSpec *m :
         wo::benchutil::machinesOr(g_opts, "net-cold"))
        printSec6Table(*m, !g_opts.machines.empty());
    return 0;
}
