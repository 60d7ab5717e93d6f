/**
 * @file
 * Litmus explorer: run the Figure 1 litmus (and friends) across every
 * hardware configuration and policy, showing exactly which combinations
 * of uniprocessor optimizations break sequential consistency — and that
 * the SC issue discipline never does.
 *
 *   $ ./litmus_explorer [seeds] [--threads=N]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/campaign.hh"

namespace {

using namespace wo;

int g_threads = 0; // resolved in main() from --threads / WO_THREADS

struct Config
{
    std::string label;
    std::string machine; ///< machine-registry name
    bool cached;
};

/** Runs of @p t whose outcome satisfies its clause: the SC-forbidden
 * outcome, for both litmus files shown here. */
int
violations(const litmus_dsl::CompiledLitmus &t, const Config &c,
           PolicyKind pk, int seeds)
{
    // Every seed is an independent campaign job; the count is merged
    // in seed order, so any --threads value prints identical numbers.
    Campaign campaign({g_threads, 1});
    return campaign.reduce<int, int>(
        seeds,
        [&](const CampaignJob &jb) {
            SystemConfig cfg =
                machineOrThrow(c.machine).config(pk, jb.index + 1);
            cfg.net.jitter = 8; // every config at the default jitter
            System sys(t.program, cfg);
            if (!sys.run())
                return 0;
            return litmus_dsl::evalCond(t.clause.cond, sys.result(),
                                        t.addrOf)
                       ? 1
                       : 0;
        },
        0, [](int &acc, const int &one) { acc += one; });
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wo;
    g_threads = consumeThreadsFlag(argc, argv);
    int seeds = argc > 1 ? std::atoi(argv[1]) : 100;

    const Config configs[] = {
        {"bus/no-cache  +WB", "bus-u", false},
        {"net/no-cache     ", "net-u", false},
        {"bus/cache     +WB", "bus", true},
        {"net/cache  (warm)", "net", true},
    };

    using litmus_dsl::compileLitmusFile;
    const std::string dir = WO_LITMUS_DIR;
    const litmus_dsl::CompiledLitmus dekker =
        compileLitmusFile(dir + "/sb.litmus");
    const litmus_dsl::CompiledLitmus iriw =
        compileLitmusFile(dir + "/iriw.litmus");

    std::cout << "Dekker litmus (" << seeds
              << " seeds): SC-forbidden both-zero outcomes\n\n";
    std::cout << std::left << std::setw(22) << "configuration"
              << std::setw(12) << "Relaxed" << std::setw(12) << "SC"
              << std::setw(14) << "WO-Def2-DRF0" << "\n";
    for (const Config &c : configs) {
        int relaxed = violations(dekker, c, PolicyKind::Relaxed, seeds);
        int sc = violations(dekker, c, PolicyKind::Sc, seeds);
        std::cout << std::setw(22) << c.label << std::setw(12) << relaxed
                  << std::setw(12) << sc;
        if (c.cached) {
            int def2 = violations(dekker, c, PolicyKind::Def2Drf0, seeds);
            std::cout << std::setw(14) << def2;
        } else {
            std::cout << std::setw(14) << "n/a";
        }
        std::cout << "\n";
    }
    std::cout << "\n(Dekker is racy, so even the DRF0 implementation "
                 "makes no promise about it —\n any zeros in the Def2 "
                 "column are contract-permitted.)\n";

    std::cout << "\nIRIW litmus (" << seeds
              << " seeds): opposite write orders observed\n\n";
    for (const Config &c : configs) {
        int relaxed = violations(iriw, c, PolicyKind::Relaxed, seeds);
        int sc = violations(iriw, c, PolicyKind::Sc, seeds);
        std::cout << std::setw(22) << c.label << "Relaxed: " << std::setw(6)
                  << relaxed << "SC: " << sc << "\n";
    }
    return 0;
}
