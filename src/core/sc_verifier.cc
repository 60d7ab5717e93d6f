#include "core/sc_verifier.hh"

#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace wo {

namespace {

/** FNV-1a style hash over a span of key words. */
inline std::uint64_t
hashKeySpan(const std::uint64_t *v, std::size_t len)
{
    // Salt with the span length and each element's position so keys
    // that are permutations of each other (frequent among frontier
    // states: same values at swapped indices) do not collide into the
    // same bucket chains.
    std::uint64_t h = 1469598103934665603ull ^
                      (0x9e3779b97f4a7c15ull * (len + 1));
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= v[i] + 0x9e3779b97f4a7c15ull * ++pos;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * A set of fixed-length keys stored back to back in one arena, so
 * visiting a new search state costs no allocation (amortized) and
 * membership tests touch contiguous memory.
 */
class KeyArenaSet
{
  public:
    KeyArenaSet() = default;
    KeyArenaSet(const KeyArenaSet &) = delete;
    KeyArenaSet &operator=(const KeyArenaSet &) = delete;

    /** Must be called before the first insert. */
    void
    setKeyLen(std::size_t keyLen)
    {
        len_ = keyLen ? keyLen : 1;
    }

    /** Insert the key currently staged at the arena's end. */
    bool
    insert(const std::vector<std::uint64_t> &key)
    {
        arena_.insert(arena_.end(), key.begin(), key.end());
        arena_.resize((count_ + 1) * len_); // pad (defensive; key==len_)
        Ref cand{static_cast<std::uint32_t>(count_)};
        auto [it, fresh] = set_.emplace(cand);
        (void)it;
        if (fresh)
            ++count_;
        else
            arena_.resize(count_ * len_);
        return fresh;
    }

  private:
    struct Ref
    {
        std::uint32_t index;
    };
    struct Hash
    {
        const KeyArenaSet *owner;
        std::size_t
        operator()(const Ref &r) const
        {
            return static_cast<std::size_t>(hashKeySpan(
                owner->arena_.data() + r.index * owner->len_,
                owner->len_));
        }
    };
    struct Eq
    {
        const KeyArenaSet *owner;
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            const std::uint64_t *base = owner->arena_.data();
            return std::equal(base + a.index * owner->len_,
                              base + (a.index + 1) * owner->len_,
                              base + b.index * owner->len_);
        }
    };

    std::size_t len_ = 1;
    std::size_t count_ = 0;
    std::vector<std::uint64_t> arena_;
    std::unordered_set<Ref, Hash, Eq> set_{16, Hash{this}, Eq{this}};
};

class Search
{
  public:
    Search(const ExecutionTrace &trace, const ScVerifierLimits &limits)
        : acc_(trace.accesses().data()), limits_(limits)
    {
        int nprocs = trace.numProcs();
        for (ProcId p = 0; p < nprocs; ++p)
            seqs_.push_back(trace.accessesOf(p));
        idx_.assign(seqs_.size(), 0);
        remaining_ = trace.size();

        // Intern addresses once: every per-location structure below is
        // a dense vector indexed by address id, never a std::map.
        std::unordered_map<Addr, int> addrId;
        addrId.reserve(static_cast<std::size_t>(trace.size()));
        std::vector<ProcId> toucher; // kNoProc = shared, -2 = unseen
        auto intern = [&](Addr a) {
            auto [it, fresh] =
                addrId.emplace(a, static_cast<int>(mem_.size()));
            if (fresh) {
                mem_.push_back(trace.initialValue(a));
                toucher.push_back(-2);
            }
            return it->second;
        };

        int n = trace.size();
        accAddr_.resize(static_cast<std::size_t>(n));
        accWriteSlot_.assign(static_cast<std::size_t>(n), -1);
        accReadSlot_.assign(static_cast<std::size_t>(n), -1);

        // Pass 1: addresses, single-toucher flags, and one counting
        // slot per distinct (location, written value) pair.
        std::map<std::pair<int, Word>, int> slotOf;
        for (const Access &a : trace.accesses()) {
            int aid = intern(a.addr);
            accAddr_[static_cast<std::size_t>(a.id)] = aid;
            if (toucher[static_cast<std::size_t>(aid)] == -2)
                toucher[static_cast<std::size_t>(aid)] = a.proc;
            else if (toucher[static_cast<std::size_t>(aid)] != a.proc)
                toucher[static_cast<std::size_t>(aid)] = kNoProc;
            if (a.writes()) {
                auto [it, fresh] = slotOf.emplace(
                    std::make_pair(aid, a.valueWritten),
                    static_cast<int>(writersLeft_.size()));
                if (fresh)
                    writersLeft_.push_back(0);
                accWriteSlot_[static_cast<std::size_t>(a.id)] = it->second;
                ++writersLeft_[static_cast<std::size_t>(it->second)];
            }
        }
        // Pass 2: point each read at the slot counting pending writes
        // of its expected value (-1: no write anywhere produces it).
        for (const Access &a : trace.accesses()) {
            if (!a.reads())
                continue;
            auto it = slotOf.find(std::make_pair(
                accAddr_[static_cast<std::size_t>(a.id)], a.valueRead));
            if (it != slotOf.end())
                accReadSlot_[static_cast<std::size_t>(a.id)] = it->second;
        }
        private_.resize(toucher.size());
        for (std::size_t i = 0; i < toucher.size(); ++i) {
            private_[i] = toucher[i] != kNoProc;
            if (!private_[i])
                sharedAddrs_.push_back(static_cast<int>(i));
        }
        keyScratch_.reserve(idx_.size() + sharedAddrs_.size());
        visited_.setKeyLen(idx_.size() + sharedAddrs_.size());
    }

    ScReport
    run()
    {
        ScReport report;
        bool found = dfs(report);
        finish(report, found);
        return report;
    }

  private:
    void
    finish(ScReport &report, bool found)
    {
        report.statesExplored = states_;
        if (found) {
            report.verdict = ScVerdict::Sc;
        } else if (capped_) {
            report.verdict = ScVerdict::Unknown;
            report.witnessOrder.clear();
        } else {
            report.verdict = ScVerdict::NotSc;
            report.witnessOrder.clear();
        }
    }

    /**
     * Fill the reusable key buffer with this frontier state: per-proc
     * indices plus the values of *shared* locations only. A private
     * location's value is a function of its owner's index, so including
     * it would only bloat the key. Reusing one scratch vector means a
     * revisited state costs no allocation at all.
     */
    const std::vector<std::uint64_t> &
    key()
    {
        keyScratch_.clear();
        for (std::size_t i : idx_)
            keyScratch_.push_back(i);
        for (int aid : sharedAddrs_)
            keyScratch_.push_back(mem_[static_cast<std::size_t>(aid)]);
        return keyScratch_;
    }

    void
    apply(const Access &a, std::size_t p, ScReport &report)
    {
        int aid = accAddr_[static_cast<std::size_t>(a.id)];
        if (a.writes()) {
            drain_undo_.push_back(
                {aid, mem_[static_cast<std::size_t>(aid)], true});
            mem_[static_cast<std::size_t>(aid)] = a.valueWritten;
            --writersLeft_[static_cast<std::size_t>(
                accWriteSlot_[static_cast<std::size_t>(a.id)])];
        } else {
            drain_undo_.push_back({aid, ~Word{0}, false});
        }
        ++idx_[p];
        --remaining_;
        report.witnessOrder.push_back(a.id);
    }

    void
    unapply(std::size_t p, ScReport &report)
    {
        const DrainUndo &u = drain_undo_.back();
        if (u.restore) {
            mem_[static_cast<std::size_t>(u.addrId)] = u.oldValue;
            ++writersLeft_[static_cast<std::size_t>(
                accWriteSlot_[static_cast<std::size_t>(
                    report.witnessOrder.back())])];
        }
        drain_undo_.pop_back();
        --idx_[p];
        ++remaining_;
        report.witnessOrder.pop_back();
    }

    /**
     * Eagerly schedule accesses that provably commute with every other
     * pending access, so the branching search only explores genuinely
     * conflicting orders:
     *  - accesses to addresses touched by a single processor (their
     *    values are interleaving-independent; a mismatching private read
     *    fails globally);
     *  - "silent" enabled accesses that leave memory unchanged (e.g. a
     *    failed TestAndSet spin re-writing the held lock value): moving
     *    one earlier cannot change any other access's read.
     *
     * @return number of accesses drained, or -1 on a global failure.
     */
    int
    drain(ScReport &report)
    {
        int drained = 0;
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t p = 0; p < seqs_.size(); ++p) {
                if (idx_[p] >= seqs_[p].size())
                    continue;
                const Access &a = acc_[seqs_[p][idx_[p]]];
                std::size_t aid = static_cast<std::size_t>(
                    accAddr_[static_cast<std::size_t>(a.id)]);
                if (private_[aid]) {
                    if (a.reads() && mem_[aid] != a.valueRead) {
                        // Private state is deterministic: no
                        // interleaving can fix this read. Roll back and
                        // fail the whole branch.
                        while (drained > 0) {
                            // Find which proc the top entry belongs to:
                            // witnessOrder's back id maps to its proc.
                            const Access &top =
                                acc_[report.witnessOrder.back()];
                            unapply(static_cast<std::size_t>(top.proc),
                                    report);
                            --drained;
                        }
                        return -1;
                    }
                    apply(a, p, report);
                    ++drained;
                    progress = true;
                    continue;
                }
                if (a.reads() && mem_[aid] != a.valueRead)
                    continue; // not enabled
                if (!a.writes() || a.valueWritten == mem_[aid]) {
                    // Silent: enabled and leaves memory unchanged.
                    apply(a, p, report);
                    ++drained;
                    progress = true;
                }
            }
        }
        return drained;
    }

    /**
     * A pending head read that does not see its value, and whose value
     * no still-pending write produces, can never become enabled — the
     * whole state is dead. (Counting the reader's own later writes is
     * conservative and keeps this sound.)
     */
    bool
    deadlocked() const
    {
        for (std::size_t p = 0; p < seqs_.size(); ++p) {
            if (idx_[p] >= seqs_[p].size())
                continue;
            const Access &a = acc_[seqs_[p][idx_[p]]];
            if (!a.reads())
                continue;
            std::size_t aid = static_cast<std::size_t>(
                accAddr_[static_cast<std::size_t>(a.id)]);
            if (mem_[aid] == a.valueRead)
                continue;
            int slot = accReadSlot_[static_cast<std::size_t>(a.id)];
            if (slot < 0 ||
                writersLeft_[static_cast<std::size_t>(slot)] == 0)
                return true;
        }
        return false;
    }

    /** Consume one unit of the state budget. */
    bool
    acquireState()
    {
        if (states_ >= limits_.maxStates) {
            capped_ = true;
            return false;
        }
        ++states_;
        return true;
    }

    bool
    dfs(ScReport &report)
    {
        int drained = drain(report);
        if (drained < 0)
            return false;
        bool found = dfsBranch(report);
        if (!found) {
            while (drained > 0) {
                const Access &top = acc_[report.witnessOrder.back()];
                unapply(static_cast<std::size_t>(top.proc), report);
                --drained;
            }
        }
        return found;
    }

    bool
    dfsBranch(ScReport &report)
    {
        if (remaining_ == 0)
            return true;
        if (deadlocked())
            return false;
        if (!visited_.insert(key()))
            return false;
        if (!acquireState())
            return false;

        for (std::size_t p = 0; p < seqs_.size(); ++p) {
            if (idx_[p] >= seqs_[p].size())
                continue;
            const Access &a = acc_[seqs_[p][idx_[p]]];
            if (a.reads() &&
                mem_[static_cast<std::size_t>(
                    accAddr_[static_cast<std::size_t>(a.id)])] !=
                    a.valueRead)
                continue; // not enabled: read value would be wrong
            apply(a, p, report);
            if (dfs(report))
                return true;
            unapply(p, report);
        }
        return false;
    }

    struct DrainUndo
    {
        int addrId;
        Word oldValue;
        bool restore = true;
    };

    const Access *acc_; ///< trace.accesses().data(), hot-path lookups
    const ScVerifierLimits &limits_;
    std::vector<std::vector<int>> seqs_;
    std::vector<std::size_t> idx_;
    std::vector<Word> mem_;         ///< frontier memory, by address id
    std::vector<char> private_;     ///< single-toucher flag, by address id
    std::vector<int> accAddr_;      ///< access id -> address id
    std::vector<int> accWriteSlot_; ///< access id -> (addr, value) slot
    std::vector<int> accReadSlot_;  ///< access id -> slot, or -1
    std::vector<int> writersLeft_;  ///< pending writes per (addr, value)
    std::vector<int> sharedAddrs_; ///< address ids with >1 toucher
    std::vector<std::uint64_t> keyScratch_; ///< reused by key()
    std::vector<DrainUndo> drain_undo_;
    int remaining_ = 0;
    std::uint64_t states_ = 0;
    bool capped_ = false;
    KeyArenaSet visited_;
};

} // namespace

ScReport
verifySc(const ExecutionTrace &trace, const ScVerifierLimits &limits)
{
    Search s(trace, limits);
    return s.run();
}

std::string
ScReport::toString() const
{
    std::ostringstream oss;
    switch (verdict) {
      case ScVerdict::Sc:
        oss << "SC (witness of " << witnessOrder.size() << " accesses, "
            << statesExplored << " states)";
        break;
      case ScVerdict::NotSc:
        oss << "NOT SC (exhausted " << statesExplored << " states)";
        break;
      case ScVerdict::Unknown:
        oss << "UNKNOWN (state cap hit at " << statesExplored << ")";
        break;
    }
    return oss.str();
}

} // namespace wo
