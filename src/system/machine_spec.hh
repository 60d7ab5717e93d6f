/**
 * @file
 * Named machine registry: the single place where the simulated machines
 * of this repo are defined. A MachineSpec is a named, documented recipe
 * for one machine: a base SystemConfig, which `config()` specializes to
 * one policy and network seed. Call sites obtain a config from the
 * registry and then apply site-specific tuning (tick limits, cache
 * geometry, sweep knobs) — they never build a SystemConfig from scratch.
 * `wo-litmus --list-machines` prints the registry, one summary line per
 * machine.
 *
 * parseMachineList accepts glob-style patterns per element: `bus-*`
 * expands to every machine whose name matches, in registry order.
 */

#ifndef WO_SYSTEM_MACHINE_SPEC_HH
#define WO_SYSTEM_MACHINE_SPEC_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "system/system.hh"

namespace wo {

/** A named, documented recipe for one simulated machine. */
struct MachineSpec
{
    std::string name;
    std::string summary; ///< one-line description (--list-machines)

    /** The machine itself. Its policy and net.seed are placeholders
     * that config() replaces; writeBuffer means "write buffers wherever
     * the policy allows them" (the classic Figure 1 reordering source on
     * the bus). */
    SystemConfig base;

    /**
     * Produce this machine's SystemConfig for @p policy: base, with
     * @p policy, @p netSeed as net.seed, and write buffers only if the
     * policy allows them.
     *
     * @p netSeed seeds the network jitter stream (ignored on the bus);
     * the default matches a default-constructed GeneralNetwork::Config.
     */
    SystemConfig config(PolicyKind policy = PolicyKind::Def2Drf0,
                        std::uint64_t netSeed = 1) const;
};

/** All registered machines, in listing order. */
const std::vector<MachineSpec> &machineRegistry();

/** Look up a machine by name; nullptr if unknown. */
const MachineSpec *findMachine(const std::string &name);

/** Look up a machine by name; throws std::runtime_error (naming the
 * known machines) if unknown. */
const MachineSpec &machineOrThrow(const std::string &name);

/**
 * Parse a comma-separated machine-name list (the --machines=<list>
 * argument). Each element may be a glob-style pattern (`*` matches any
 * run, `?` one character): `bus-*,net-l2` expands against the registry
 * in listing order, deduplicating. Throws std::runtime_error on an
 * empty list, an unknown name or a pattern matching nothing.
 */
std::vector<const MachineSpec *>
parseMachineList(const std::string &csv);

/** Print the registry as an aligned table: name, interconnect, cached,
 * protocol, levels, jitter, description (the --list-machines output). */
void printMachineList(std::ostream &os);

} // namespace wo

#endif // WO_SYSTEM_MACHINE_SPEC_HH
