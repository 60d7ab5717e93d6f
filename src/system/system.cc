#include "system/system.hh"

#include <sstream>
#include <stdexcept>

#include "obs/coverage.hh"

namespace wo {

void
System::checkConfig(const MultiProgram &program, const SystemConfig &cfg)
{
    const ConsistencyPolicy &policy = policyOf(cfg.policy);
    if (policy.requiresCache && !cfg.cached) {
        throw std::invalid_argument(
            std::string(policy.name) +
            " needs a cache-coherent system (reserve bits live in caches)");
    }
    if (cfg.writeBuffer && !policy.allowWriteBuffer) {
        throw std::invalid_argument(
            std::string("write buffers are illegal under policy ") +
            policy.name);
    }
    if (cfg.numDirs < 1 || cfg.numMemModules < 1)
        throw std::invalid_argument("need at least one memory/dir bank");
    if (program.numProcs() < 1)
        throw std::invalid_argument("workload has no processors");
    if (cfg.cacheLevels < 1 || cfg.cacheLevels > 2)
        throw std::invalid_argument("cacheLevels must be 1 or 2");
    if (cfg.cacheLevels == 2 && !cfg.cached)
        throw std::invalid_argument("cacheLevels > 1 needs caches");
}

System::System(const MultiProgram &program, const SystemConfig &cfg)
    : program_(program), touched_(program_.touchedAddrs()), cfg_(cfg)
{
    checkConfig(program_, cfg_);
    int nprocs = program_.numProcs();

    if (cfg_.interconnect == InterconnectKind::Bus) {
        net_ = std::make_unique<Bus>(eq_, stats_, cfg_.bus);
    } else {
        net_ = std::make_unique<GeneralNetwork>(eq_, stats_, cfg_.net);
    }

    if (cfg_.cached) {
        // Node layout: L1s at [0, n); with an L2 level, L2s at [n, 2n)
        // and directories behind them; otherwise directories at [n, ...).
        NodeId dir_base = cfg_.cacheLevels == 2 ? 2 * nprocs : nprocs;
        for (int d = 0; d < cfg_.numDirs; ++d) {
            dirs_.push_back(std::make_unique<Directory>(
                eq_, *net_, stats_, dir_base + d, cfg_.protocol,
                "dir" + std::to_string(d)));
        }
        if (cfg_.cacheLevels == 2) {
            for (ProcId p = 0; p < nprocs; ++p) {
                mids_.push_back(std::make_unique<MidCache>(
                    eq_, *net_, stats_, nprocs + p, p, dir_base,
                    cfg_.numDirs, cfg_.protocol, cfg_.l2,
                    "l2cache" + std::to_string(p)));
            }
        }
        for (ProcId p = 0; p < nprocs; ++p) {
            // With an L2 level each L1 talks only to its private L2,
            // which presents a directory-shaped outer interface.
            NodeId l1_dir_base =
                cfg_.cacheLevels == 2 ? nprocs + p : nprocs;
            int l1_num_dirs = cfg_.cacheLevels == 2 ? 1 : cfg_.numDirs;
            caches_.push_back(std::make_unique<Cache>(
                eq_, *net_, stats_, p, l1_dir_base, l1_num_dirs,
                cfg_.protocol, policyOf(cfg_.policy), cfg_.cache,
                "cache" + std::to_string(p)));
        }
    } else {
        for (int m = 0; m < cfg_.numMemModules; ++m) {
            mems_.push_back(std::make_unique<MemoryModule>(
                eq_, *net_, stats_, nprocs + m));
        }
        for (ProcId p = 0; p < nprocs; ++p) {
            uncached_ports_.push_back(std::make_unique<UncachedPort>(
                eq_, *net_, stats_, p, nprocs, cfg_.numMemModules,
                "port" + std::to_string(p)));
        }
    }

    for (ProcId p = 0; p < nprocs; ++p) {
        MemPort &port = cfg_.cached
                            ? static_cast<MemPort &>(*caches_[p])
                            : static_cast<MemPort &>(*uncached_ports_[p]);
        procs_.push_back(std::make_unique<Processor>(
            eq_, stats_, p, program_.program(p), port, policyOf(cfg_.policy),
            &trace_, cfg_.writeBuffer));
    }

    // Shares the between-runs install path: initial-value pokes,
    // warm-cache pre-loading and processor (re)binding live in one
    // place, so a reset-reuse run starts from byte-identical state.
    bindAddrs();
    loadProgram(program_);
    setTraceSink(cfg_.traceSink);
}

bool
System::structurallyCompatible(const SystemConfig &cfg) const
{
    // Compare copies with the per-job fields cleared, so a field added
    // to any config struct takes part without touching this function.
    auto structural = [](SystemConfig c) {
        c.net.seed = 0;
        c.maxTicks = 0;
        c.traceSink = nullptr;
        c.coverage = nullptr;
        return c;
    };
    return structural(cfg) == structural(cfg_);
}

bool
System::reuseFor(const MultiProgram &program, const SystemConfig &cfg)
{
    if (program.numProcs() != static_cast<int>(procs_.size()) ||
        !structurallyCompatible(cfg))
        return false;
    // Deliberate drain: a run that hit its livelock tick limit leaves
    // events pending, and abandoning them is exactly what reuse wants.
    eq_.reset(/*drain=*/true);
    stats_.reset();
    trace_.clear();
    net_->reset(cfg.net.seed);
    for (auto &c : caches_)
        c->reset();
    for (auto &m : mids_)
        m->reset();
    for (auto &d : dirs_)
        d->reset();
    for (auto &m : mems_)
        m->reset();
    for (auto &u : uncached_ports_)
        u->reset();
    cfg_.net.seed = cfg.net.seed;
    cfg_.maxTicks = cfg.maxTicks;
    setTraceSink(cfg.traceSink);
    cfg_.coverage = cfg.coverage;
    loadProgram(program);
    return true;
}

void
System::loadProgram(const MultiProgram &program)
{
    if (&program != &program_ && program != program_) {
        program_ = program;
        program_.touchedAddrs(touched_);
        bindAddrs();
    }

    int nprocs = static_cast<int>(procs_.size());
    for (Addr a : touched_)
        trace_.setInitial(a, program_.initialValue(a));

    if (cfg_.cached) {
        for (Addr a : touched_)
            dirs_[a % cfg_.numDirs]->poke(a, program_.initialValue(a));
        if (cfg_.warmCaches) {
            // The directory's sharers are the nodes it talks to: the
            // L1s directly, or the L2s when a mid level is present.
            NodeSet all;
            for (ProcId p = 0; p < nprocs; ++p)
                all.insert(cfg_.cacheLevels == 2 ? nprocs + p : p);
            for (Addr a : touched_) {
                Word v = program_.initialValue(a);
                for (ProcId p = 0; p < nprocs; ++p) {
                    caches_[p]->pokeLine(a, LineState::Shared, v);
                    if (cfg_.cacheLevels == 2)
                        mids_[p]->pokeLine(a, LineState::Shared, v,
                                           /*inner_shared=*/true);
                }
                dirs_[a % cfg_.numDirs]->pokeShared(a, all);
            }
        }
    } else {
        for (Addr a : touched_)
            mems_[a % cfg_.numMemModules]->poke(a, program_.initialValue(a));
    }

    for (ProcId p = 0; p < nprocs; ++p)
        procs_[p]->reset(program_.program(p));
}

void
System::bindAddrs()
{
    for (auto &c : caches_)
        c->bindAddrs(touched_);
    for (auto &m : mids_)
        m->bindAddrs(touched_);
    // A bank serves the addresses congruent to its index.
    auto bindBanks = [this](auto &banks) {
        const auto n = static_cast<Addr>(banks.size());
        for (Addr b = 0; b < n; ++b) {
            bank_addrs_.clear();
            for (Addr a : touched_) {
                if (a % n == b)
                    bank_addrs_.push_back(a);
            }
            banks[b]->bindAddrs(bank_addrs_);
        }
    };
    bindBanks(dirs_);
    bindBanks(mems_);
}

void
System::setTraceSink(TraceSink *sink)
{
    cfg_.traceSink = sink;
    net_->setTraceSink(sink);
    for (auto &c : caches_)
        c->setTraceSink(sink);
    for (auto &m : mids_)
        m->setTraceSink(sink);
    for (auto &d : dirs_)
        d->setTraceSink(sink);
    for (auto &m : mems_)
        m->setTraceSink(sink);
    for (auto &u : uncached_ports_)
        u->setTraceSink(sink);
    for (auto &p : procs_)
        p->setTraceSink(sink);
}

bool
System::run()
{
    return runStreaming(0, nullptr);
}

bool
System::runStreaming(Tick chunkTicks,
                     const std::function<void(System &)> &onChunk)
{
    // Everything this run exercises — protocol transitions, stall
    // reasons, latency buckets — lands in the configured CoverageMap;
    // the scope restores the previous thread-local map on exit.
    CoverageScope cov_scope(cfg_.coverage);
    for (auto &p : procs_)
        p->start();
    bool drained;
    if (chunkTicks == 0) {
        drained = eq_.run(cfg_.maxTicks);
    } else {
        // eq_.run(stop) returns false with the queue intact once the
        // next event lies beyond `stop` — exactly a chunk boundary.
        Tick stop = chunkTicks;
        while (true) {
            drained = eq_.run(std::min(stop, cfg_.maxTicks));
            if (drained || stop >= cfg_.maxTicks)
                break;
            if (onChunk)
                onChunk(*this);
            stop += chunkTicks;
        }
    }
    if (onChunk)
        onChunk(*this);
    bool ok = drained;
    for (auto &p : procs_) {
        if (!p->halted() || !p->quiescent())
            ok = false;
    }
    for (auto &d : dirs_) {
        if (!d->idle())
            ok = false;
    }
    for (auto &m : mids_) {
        if (!m->idle())
            ok = false;
    }
    for (auto &p : procs_)
        p->finalizeObs();
    if (!finishTickStat_.valid()) {
        finishTickStat_ = stats_.handle("system.finish_tick");
        completedStat_ = stats_.handle("system.completed");
    }
    stats_.set(finishTickStat_, finishTick());
    stats_.set(completedStat_, ok ? 1 : 0);
    if (trace_.retired() > 0) {
        // Bounded retention was used: make it observable. Whole-trace
        // runs never emit these, keeping their reports byte-identical.
        stats_.set("system.trace_events_retired",
                   static_cast<std::uint64_t>(trace_.retired()));
        stats_.maxOf("system.window_high_water",
                     static_cast<std::uint64_t>(trace_.windowHighWater()));
    }
    return ok;
}

Tick
System::finishTick() const
{
    Tick t = 0;
    for (const auto &p : procs_) {
        if (p->haltTick() != kNoTick && p->haltTick() > t)
            t = p->haltTick();
    }
    return t;
}

Cache *
System::cache(ProcId p)
{
    return cfg_.cached ? caches_.at(p).get() : nullptr;
}

Word
System::finalValue(Addr a) const
{
    if (!cfg_.cached)
        return mems_[a % cfg_.numMemModules]->peek(a);
    Word v = dirs_[a % cfg_.numDirs]->peek(a);
    // A dirty cached copy is the authoritative value; the innermost
    // level wins (an L1's M/O copy is newer than the L2 mirror behind
    // it).
    for (const auto &m : mids_) {
        LineState st;
        Word d;
        if (m->peekLine(a, &st, &d) &&
            (st == LineState::Modified || st == LineState::Owned))
            v = d;
    }
    for (const auto &c : caches_) {
        LineState st;
        Word d;
        if (c->peekLine(a, &st, &d) &&
            (st == LineState::Modified || st == LineState::Owned))
            v = d;
    }
    return v;
}

Word
System::registerValue(ProcId p, int reg) const
{
    if (p < 0 || p >= static_cast<ProcId>(procs_.size()) || reg < 0)
        return 0;
    const std::vector<Word> &regs = procs_[static_cast<std::size_t>(p)]
                                        ->registers();
    return static_cast<std::size_t>(reg) < regs.size()
               ? regs[static_cast<std::size_t>(reg)]
               : 0;
}

RunResult
System::result() const
{
    RunResult r;
    for (Addr a : touched_)
        r.finalMemory[a] = finalValue(a);
    int nregs = program_.numRegisters();
    for (const auto &p : procs_) {
        std::vector<Word> regs = p->registers();
        regs.resize(nregs, 0);
        r.registers.push_back(std::move(regs));
    }
    r.allHalted = true;
    for (const auto &p : procs_) {
        if (!p->halted())
            r.allHalted = false;
    }
    return r;
}

std::vector<std::string>
System::auditCoherence() const
{
    std::vector<std::string> problems;
    if (!cfg_.cached)
        return problems;
    // E holds memory's value by construction (granted clean, never
    // written); O's dirty value was copied into memory when the read
    // recall was serviced, so at quiescence only M may differ from it.
    auto isOwnerState = [](LineState st) {
        return st == LineState::Exclusive || st == LineState::Modified ||
               st == LineState::Owned;
    };
    auto mayDiverge = [](LineState st) {
        return st == LineState::Modified;
    };
    int nprocs = static_cast<int>(procs_.size());
    for (Addr a : touched_) {
        const Directory &dir = *dirs_[a % cfg_.numDirs];
        Directory::LineAudit da = dir.audit(a);
        if (da.busy) {
            problems.push_back("dir busy on line " + std::to_string(a));
        }
        // The level the directory tracks: L1s, or L2s when present.
        int owner_copies = 0;
        NodeId owner_holder = -1;
        bool owner_owned = false;
        for (ProcId p = 0; p < nprocs; ++p) {
            LineState st;
            Word d;
            bool have = cfg_.cacheLevels == 2
                            ? mids_[p]->peekLine(a, &st, &d)
                            : caches_[p]->peekLine(a, &st, &d);
            NodeId node = cfg_.cacheLevels == 2 ? nprocs + p : p;
            std::string who = (cfg_.cacheLevels == 2 ? "l2cache" : "cache") +
                              std::to_string(p);
            if (!have)
                continue;
            if (isOwnerState(st)) {
                ++owner_copies;
                owner_holder = node;
                owner_owned = st == LineState::Owned;
            } else if (!da.sharers.contains(node)) {
                problems.push_back(
                    who + " holds line " + std::to_string(a) +
                    " shared but is not in the directory sharer set");
            }
            if (!mayDiverge(st) && d != dir.peek(a)) {
                problems.push_back(
                    who + " clean copy of " + std::to_string(a) + " = " +
                    std::to_string(d) + " but directory memory = " +
                    std::to_string(dir.peek(a)));
            }
        }
        if (owner_copies > 1) {
            problems.push_back("line " + std::to_string(a) + " has " +
                               std::to_string(owner_copies) +
                               " owner-state copies");
        }
        if (owner_copies == 1 &&
            (!(owner_owned ? da.owned : da.exclusive) ||
             da.owner != owner_holder)) {
            problems.push_back(
                "line " + std::to_string(a) + " owned by node " +
                std::to_string(owner_holder) +
                " but directory disagrees");
        }
        if (owner_copies == 0 && (da.exclusive || da.owned)) {
            problems.push_back("directory says line " + std::to_string(a) +
                               " is owned but no cache holds it "
                               "exclusively");
        }
        if (da.forwarder != -1 &&
            (!da.shared || !da.sharers.contains(da.forwarder))) {
            problems.push_back(
                "line " + std::to_string(a) +
                " has a forwarder that is not a tracked sharer");
        }
        if (cfg_.cacheLevels == 2) {
            // Inclusion: every L1 line lives in its L2, owner states
            // match, and clean L1 copies mirror the L2's data.
            for (ProcId p = 0; p < nprocs; ++p) {
                LineState l1st, l2st;
                Word l1d, l2d;
                if (!caches_[p]->peekLine(a, &l1st, &l1d))
                    continue;
                if (!mids_[p]->peekLine(a, &l2st, &l2d)) {
                    problems.push_back(
                        "cache" + std::to_string(p) + " holds line " +
                        std::to_string(a) +
                        " that its L2 does not (inclusion violated)");
                    continue;
                }
                if (isOwnerState(l1st) && !isOwnerState(l2st)) {
                    problems.push_back(
                        "cache" + std::to_string(p) + " owns line " +
                        std::to_string(a) + " but its L2 holds it " +
                        toString(l2st));
                }
                if (!mayDiverge(l1st) && l1d != l2d) {
                    problems.push_back(
                        "cache" + std::to_string(p) + " copy of " +
                        std::to_string(a) + " = " + std::to_string(l1d) +
                        " but its L2 holds " + std::to_string(l2d));
                }
            }
        }
    }
    return problems;
}

std::string
System::description() const
{
    std::ostringstream oss;
    oss << (cfg_.interconnect == InterconnectKind::Bus ? "bus" : "network")
        << "/" << (cfg_.cached ? "cached" : "uncached") << "/"
        << toString(cfg_.policy);
    if (cfg_.writeBuffer)
        oss << "+wb";
    return oss.str();
}

} // namespace wo
