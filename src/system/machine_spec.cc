#include "system/machine_spec.hh"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace wo {

SystemConfig
MachineSpec::config(PolicyKind policy, std::uint64_t netSeed) const
{
    SystemConfig cfg = base;
    cfg.policy = policy;
    cfg.net.seed = netSeed;
    cfg.writeBuffer = base.writeBuffer && policyOf(policy).allowWriteBuffer;
    return cfg;
}

const std::vector<MachineSpec> &
machineRegistry()
{
    static const std::vector<MachineSpec> registry = [] {
        std::vector<MachineSpec> r;

        MachineSpec bus;
        bus.name = "bus";
        bus.summary = "shared-bus cache-coherent machine; write buffers "
                      "under Relaxed";
        bus.base.interconnect = InterconnectKind::Bus;
        bus.base.writeBuffer = true;
        r.push_back(bus);

        // Capacity-bounded variant: the tiny L1 forces real evictions
        // (Evict protocol transitions), which the unbounded machines
        // never exercise.
        MachineSpec bus_cap = bus;
        bus_cap.name = "bus-cap";
        bus_cap.summary = "shared-bus machine with tiny bounded L1s "
                          "(capacity evictions)";
        bus_cap.base.cache.numSets = 1;
        bus_cap.base.cache.ways = 2;
        r.push_back(bus_cap);

        MachineSpec bus_u;
        bus_u.name = "bus-u";
        bus_u.summary =
            "cache-less shared-bus machine (Figure 1 case 1)";
        bus_u.base.interconnect = InterconnectKind::Bus;
        bus_u.base.cached = false;
        bus_u.base.writeBuffer = true;
        r.push_back(bus_u);

        MachineSpec bus_slow;
        bus_slow.name = "bus-slow";
        bus_slow.summary =
            "contended shared bus: 3x latency, 4x occupancy";
        bus_slow.base.interconnect = InterconnectKind::Bus;
        bus_slow.base.writeBuffer = true;
        bus_slow.base.bus.latency = 12;
        bus_slow.base.bus.occupancy = 4;
        r.push_back(bus_slow);

        MachineSpec net;
        net.name = "net";
        net.summary = "jittered-network cache-coherent machine, warm "
                      "caches";
        net.base.warmCaches = true;
        r.push_back(net);

        MachineSpec net_cold;
        net_cold.name = "net-cold";
        net_cold.summary = "jittered-network cache-coherent machine, "
                           "cold caches (bench default)";
        r.push_back(net_cold);

        MachineSpec net_u;
        net_u.name = "net-u";
        net_u.summary = "cache-less banked-memory network machine "
                        "(Figure 1 case 2)";
        net_u.base.cached = false;
        net_u.base.net.jitter = 30;
        r.push_back(net_u);

        MachineSpec net_banked;
        net_banked.name = "net-banked";
        net_banked.summary = "network machine with banked directories "
                             "and memories (addr-interleaved)";
        net_banked.base.numDirs = 2;
        net_banked.base.numMemModules = 4;
        r.push_back(net_banked);

        // Protocol variants: identical topologies to `bus` / `net-cold`
        // but running the richer invalidation protocols.
        auto protoVariant = [](const MachineSpec &from, std::string name,
                               ProtocolKind proto, const char *pname) {
            MachineSpec m = from;
            m.name = std::move(name);
            m.base.protocol = proto;
            m.summary = std::string(pname) + " protocol variant of '" +
                        from.name + "'";
            return m;
        };
        r.push_back(protoVariant(bus, "bus-mesi", ProtocolKind::Mesi,
                                 "MESI"));
        r.push_back(protoVariant(bus, "bus-moesi", ProtocolKind::Moesi,
                                 "MOESI"));
        r.push_back(protoVariant(bus, "bus-mesif", ProtocolKind::Mesif,
                                 "MESIF"));
        r.push_back(protoVariant(net_cold, "net-mesi", ProtocolKind::Mesi,
                                 "MESI"));
        r.push_back(protoVariant(net_cold, "net-moesi",
                                 ProtocolKind::Moesi, "MOESI"));
        r.push_back(protoVariant(net_cold, "net-mesif",
                                 ProtocolKind::Mesif, "MESIF"));

        MachineSpec bus_l2 = bus;
        bus_l2.name = "bus-l2";
        bus_l2.summary = "shared-bus machine with private L2s (MSI)";
        bus_l2.base.cacheLevels = 2;
        r.push_back(bus_l2);

        MachineSpec net_l2 = net_cold;
        net_l2.name = "net-l2";
        net_l2.summary = "network machine with private L2s (MESI)";
        net_l2.base.protocol = ProtocolKind::Mesi;
        net_l2.base.cacheLevels = 2;
        r.push_back(net_l2);

        MachineSpec net_l2_moesi = net_cold;
        net_l2_moesi.name = "net-l2-moesi";
        net_l2_moesi.summary =
            "network machine with private L2s (MOESI)";
        net_l2_moesi.base.protocol = ProtocolKind::Moesi;
        net_l2_moesi.base.cacheLevels = 2;
        r.push_back(net_l2_moesi);

        return r;
    }();
    return registry;
}

const MachineSpec *
findMachine(const std::string &name)
{
    for (const MachineSpec &m : machineRegistry()) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

const MachineSpec &
machineOrThrow(const std::string &name)
{
    if (const MachineSpec *m = findMachine(name))
        return *m;
    std::string known;
    for (const MachineSpec &m : machineRegistry())
        known += (known.empty() ? "" : ", ") + m.name;
    throw std::runtime_error("unknown machine '" + name +
                             "' (known: " + known + ")");
}

/** Glob match: `*` any run, `?` one character, else literal. */
static bool
globMatch(const std::string &pat, const std::string &s, std::size_t pi = 0,
          std::size_t si = 0)
{
    while (pi < pat.size()) {
        if (pat[pi] == '*') {
            for (std::size_t k = si; k <= s.size(); ++k) {
                if (globMatch(pat, s, pi + 1, k))
                    return true;
            }
            return false;
        }
        if (si >= s.size())
            return false;
        if (pat[pi] != '?' && pat[pi] != s[si])
            return false;
        ++pi;
        ++si;
    }
    return si == s.size();
}

std::vector<const MachineSpec *>
parseMachineList(const std::string &csv)
{
    std::vector<const MachineSpec *> out;
    auto addUnique = [&out](const MachineSpec *m) {
        for (const MachineSpec *have : out) {
            if (have == m)
                return;
        }
        out.push_back(m);
    };
    std::istringstream in(csv);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty())
            continue;
        if (item.find('*') == std::string::npos &&
            item.find('?') == std::string::npos) {
            addUnique(&machineOrThrow(item));
            continue;
        }
        bool any = false;
        for (const MachineSpec &m : machineRegistry()) {
            if (globMatch(item, m.name)) {
                addUnique(&m);
                any = true;
            }
        }
        if (!any) {
            throw std::runtime_error("machine pattern '" + item +
                                     "' matches no registered machine");
        }
    }
    if (out.empty())
        throw std::runtime_error("empty machine list");
    return out;
}

void
printMachineList(std::ostream &os)
{
    os << std::left << std::setw(14) << "machine" << std::setw(9)
       << "network" << std::setw(8) << "cached" << std::setw(7)
       << "proto" << std::setw(7) << "levels" << std::setw(8)
       << "jitter" << "description\n";
    for (const MachineSpec &m : machineRegistry()) {
        const SystemConfig &b = m.base;
        bool is_net = b.interconnect == InterconnectKind::Network;
        os << std::left << std::setw(14) << m.name << std::setw(9)
           << (is_net ? "net" : "bus") << std::setw(8)
           << (b.cached ? "yes" : "no") << std::setw(7)
           << (b.cached ? toString(b.protocol) : "-") << std::setw(7)
           << (b.cached ? std::to_string(b.cacheLevels) : std::string("-"))
           << std::setw(8)
           << (is_net ? std::to_string(b.net.jitter) : std::string("-"))
           << m.summary << "\n";
    }
}

} // namespace wo
