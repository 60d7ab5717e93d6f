/**
 * @file
 * Figure 1 reproduction: sequential consistency can be violated in all
 * four shared-memory configurations once the corresponding uniprocessor
 * optimization is enabled — and never under the SC issue discipline.
 *
 * For each configuration the Dekker-style litmus runs over many seeds;
 * the table reports how often the SC-forbidden both-read-zero outcome
 * occurred, and cross-checks every flagged run with the SC verifier.
 */

#include <sstream>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/system.hh"
#include "workload/campaign.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from --threads/--seed

/** The Dekker litmus (sb.litmus); its clause is the both-zero outcome. */
const litmus_dsl::CompiledLitmus &
dekker()
{
    static const litmus_dsl::CompiledLitmus c =
        litmus_dsl::compileLitmusFile(std::string(WO_LITMUS_DIR) +
                                      "/sb.litmus");
    return c;
}

struct Fig1Config
{
    std::string label;
    std::string mechanism;
    std::string machine; ///< machine-registry name
};

const std::vector<Fig1Config> &
fig1Configs()
{
    static const std::vector<Fig1Config> configs = {
        {"bus / no cache", "reads pass writes in write buffer", "bus-u"},
        {"network / no cache", "in-order issue, modules reached out of order",
         "net-u"},
        {"bus / cache", "reads pass writes in write buffer", "bus"},
        {"network / cache", "read before write propagates to other cache",
         "net"},
    };
    return configs;
}

SystemConfig
buildConfig(const Fig1Config &fc, PolicyKind pk, std::uint64_t seed)
{
    SystemConfig cfg = machineOrThrow(fc.machine).config(pk, seed);
    // Figure 1 runs every machine at the default jitter, including the
    // cache-less network machine (whose registry default is 30).
    cfg.net.jitter = 8;
    return cfg;
}

int
countViolations(const Fig1Config &fc, PolicyKind pk, int runs,
                bool verify_sc)
{
    // One seed per campaign job; each flagged run is cross-checked by
    // the SC verifier inside its own job, so the verification work
    // parallelizes along with the simulations.
    Campaign campaign({g_opts.threads, g_opts.baseSeed});
    return campaign.reduce<int, int>(
        runs,
        [&](const CampaignJob &jb) {
            int s = jb.index + 1;
            const litmus_dsl::CompiledLitmus &sb = dekker();
            System sys(sb.program, buildConfig(fc, pk, s));
            if (!sys.run())
                return 0;
            if (!litmus_dsl::evalCond(sb.clause.cond, sys.result(),
                                      sb.addrOf))
                return 0;
            if (verify_sc && verifySc(sys.trace()).sc()) {
                std::cerr << "BUG: flagged outcome verified SC!\n";
            }
            return 1;
        },
        0, [](int &acc, const int &one) { acc += one; });
}

void
printFig1Table()
{
    const int runs = 200;
    benchutil::banner(
        "Figure 1: SC violations by configuration (Dekker litmus, " +
        std::to_string(runs) + " seeds)");
    benchutil::Table t({"configuration", "relaxed mechanism",
                        "relaxed violations", "SC-policy violations"});
    for (const auto &fc : fig1Configs()) {
        int relaxed = countViolations(fc, PolicyKind::Relaxed, runs, true);
        int sc = countViolations(fc, PolicyKind::Sc, runs, true);
        std::ostringstream r, s;
        r << relaxed << "/" << runs;
        s << sc << "/" << runs;
        t.addRow({fc.label, fc.mechanism, r.str(), s.str()});
    }
    t.print();
    std::cout << "\nExpected shape: every configuration shows violations "
                 "under its relaxed mechanism;\nthe SC issue discipline "
                 "shows zero everywhere.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    printFig1Table();
    return 0;
}
