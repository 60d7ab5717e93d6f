#include "core/sc_verifier.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/state_set.hh"
#include "sim/rng.hh"

namespace wo {

namespace {

/** Key -> dense int id; Hash maps a Key to 64 well-mixed bits. */
template <class Key, std::uint64_t (*Hash)(const Key &)>
class FlatIdTable
{
  public:
    void clear() { slots_.clear(); }

    /** The id of @p key, inserting @p id if it is absent; second is
     * true on insertion. */
    std::pair<int, bool>
    emplace(const Key &key, int id)
    {
        slots_.reserveOne([](const Slot &s) { return Hash(s.key); });
        std::size_t i = at(key);
        if (slots_.live(slots_[i]))
            return {slots_[i].id, false};
        slots_.put(i, {key, id, 0});
        return {id, true};
    }

    /** The id of @p key, or -1. */
    int
    find(const Key &key) const
    {
        if (slots_.size() == 0)
            return -1;
        std::size_t i = at(key);
        return slots_.live(slots_[i]) ? slots_[i].id : -1;
    }

  private:
    struct Slot
    {
        Key key{};
        int id = -1;
        std::uint32_t stamp = 0;
    };

    std::size_t
    at(const Key &key) const
    {
        return slots_.probe(Hash(key),
                            [&](const Slot &s) { return s.key == key; });
    }

    EpochSlots<Slot> slots_;
};

std::uint64_t
hashAddr(const Addr &a)
{
    return mix64(a);
}

/** One (location, written value) pair. The value is the full 64-bit
 * Word: two writes differing only in their high half are distinct. */
struct LocValue
{
    int addrId = 0;
    Word value = 0;
    bool operator==(const LocValue &) const = default;
};

std::uint64_t
hashLocValue(const LocValue &k)
{
    return mix64(k.value ^ mix64(static_cast<std::uint64_t>(k.addrId)));
}

} // namespace

/**
 * Every buffer of the search. load() refills them for one trace with
 * clear()/assign(), which keep capacity, so a warm workspace checks a
 * trace no larger than an earlier one without allocating (the one
 * exception is the witness copied into an Sc report, when asked for).
 */
class ScVerifier::Workspace
{
  public:
    ScReport
    check(const ExecutionTrace &trace, const ScVerifierLimits &limits,
          bool keepWitness)
    {
        load(trace, limits);
        bool found = dfs();
        ScReport report;
        report.statesExplored = states_;
        if (found) {
            report.verdict = ScVerdict::Sc;
            if (keepWitness)
                report.witnessOrder = witness_;
        } else {
            report.verdict = capped_ ? ScVerdict::Unknown : ScVerdict::NotSc;
        }
        return report;
    }

  private:
    void
    load(const ExecutionTrace &trace, const ScVerifierLimits &limits)
    {
        acc_ = trace.accesses().data();
        maxStates_ = limits.maxStates;
        states_ = 0;
        capped_ = false;
        witness_.clear();
        undo_.clear();
        remaining_ = trace.size();

        // seqs_ only grows, so a processor's list keeps its capacity
        // across traces with fewer processors; idx_.size() is the
        // processor count.
        const auto nprocs = static_cast<std::size_t>(trace.numProcs());
        idx_.assign(nprocs, 0);
        if (seqs_.size() < nprocs)
            seqs_.resize(nprocs);
        for (std::size_t p = 0; p < nprocs; ++p)
            seqs_[p].clear();
        info_.assign(static_cast<std::size_t>(trace.size()), AccInfo{});
        addrId_.clear();
        mem_.clear();
        toucher_.clear();
        writersLeft_.clear();
        slotOf_.clear();

        // One pass: intern addresses (every per-location structure is a
        // dense vector indexed by address id), note single touchers,
        // give every distinct (location, written value) pair a
        // pending-write counter, and list each processor's ids in
        // program order (by poIndex, ties by id, as HappensBefore
        // chains them).
        bool inOrder = true;
        for (const Access &a : trace.accesses()) {
            auto [aid, fresh] =
                addrId_.emplace(a.addr, static_cast<int>(mem_.size()));
            if (fresh) {
                mem_.push_back(0);
                toucher_.push_back(a.proc);
            } else if (toucher_[static_cast<std::size_t>(aid)] != a.proc) {
                toucher_[static_cast<std::size_t>(aid)] = kNoProc;
            }
            AccInfo &info = info_[static_cast<std::size_t>(a.id)];
            info.addr = aid;
            if (a.writes()) {
                auto [slot, added] =
                    slotOf_.emplace({aid, a.valueWritten},
                                    static_cast<int>(writersLeft_.size()));
                if (added)
                    writersLeft_.push_back(0);
                info.writeSlot = slot;
                ++writersLeft_[static_cast<std::size_t>(slot)];
            }
            if (a.proc >= 0) {
                auto &seq = seqs_[static_cast<std::size_t>(a.proc)];
                // Ids ascend in recording order, so the list is sorted
                // unless some poIndex steps back.
                if (!seq.empty() && acc_[seq.back()].poIndex > a.poIndex)
                    inOrder = false;
                seq.push_back(a.id);
            }
        }
        if (!inOrder) {
            auto programOrder = [this](int x, int y) {
                const Access &ax = acc_[x];
                const Access &ay = acc_[y];
                if (ax.poIndex != ay.poIndex)
                    return ax.poIndex < ay.poIndex;
                return x < y;
            };
            for (std::size_t p = 0; p < nprocs; ++p)
                std::sort(seqs_[p].begin(), seqs_[p].end(), programOrder);
        }
        for (const auto &[addr, value] : trace.initials()) {
            int aid = addrId_.find(addr);
            if (aid >= 0)
                mem_[static_cast<std::size_t>(aid)] = value;
        }

        sharedAddrs_.clear();
        for (std::size_t i = 0; i < toucher_.size(); ++i) {
            if (toucher_[i] == kNoProc)
                sharedAddrs_.push_back(static_cast<int>(i));
        }
        keyScratch_.resize(nprocs + sharedAddrs_.size());
        visited_.reset(keyScratch_.size());
    }

    /**
     * Fill the reusable key buffer with this frontier state: per-proc
     * indices plus the values of *shared* locations only. A private
     * location's value is a function of its owner's index, so including
     * it would only bloat the key.
     */
    std::span<const std::uint64_t>
    key()
    {
        std::uint64_t *k = keyScratch_.data();
        for (std::size_t i : idx_)
            *k++ = i;
        for (int aid : sharedAddrs_)
            *k++ = mem_[static_cast<std::size_t>(aid)];
        return keyScratch_;
    }

    /** @p p's next access (idx_[p] < seqs_[p].size()). */
    const Access &
    head(std::size_t p) const
    {
        return acc_[seqs_[p][idx_[p]]];
    }

    int
    addrOf(const Access &a) const
    {
        return info_[static_cast<std::size_t>(a.id)].addr;
    }

    void
    apply(const Access &a, std::size_t p)
    {
        int aid = addrOf(a);
        if (a.writes()) {
            undo_.push_back({aid, mem_[static_cast<std::size_t>(aid)], true});
            mem_[static_cast<std::size_t>(aid)] = a.valueWritten;
            --writersLeft_[static_cast<std::size_t>(
                info_[static_cast<std::size_t>(a.id)].writeSlot)];
        } else {
            undo_.push_back({aid, ~Word{0}, false});
        }
        ++idx_[p];
        --remaining_;
        witness_.push_back(a.id);
    }

    void
    unapply(std::size_t p)
    {
        const DrainUndo &u = undo_.back();
        if (u.restore) {
            mem_[static_cast<std::size_t>(u.addrId)] = u.oldValue;
            ++writersLeft_[static_cast<std::size_t>(
                info_[static_cast<std::size_t>(witness_.back())].writeSlot)];
        }
        undo_.pop_back();
        --idx_[p];
        ++remaining_;
        witness_.pop_back();
    }

    /** Undo the @p n most recent applies (the witness's tail names
     * their processors). */
    void
    unwind(int n)
    {
        for (; n > 0; --n)
            unapply(static_cast<std::size_t>(acc_[witness_.back()].proc));
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
    drain()
    {
        int drained = 0;
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t p = 0; p < idx_.size(); ++p) {
                if (idx_[p] >= seqs_[p].size())
                    continue;
                const Access &a = head(p);
                const auto aid = static_cast<std::size_t>(addrOf(a));
                if (toucher_[aid] != kNoProc) { // private
                    if (a.reads() && mem_[aid] != a.valueRead) {
                        // Private state is deterministic: no
                        // interleaving can fix this read. Roll back and
                        // fail the whole branch.
                        unwind(drained);
                        return -1;
                    }
                    apply(a, p);
                    ++drained;
                    progress = true;
                    continue;
                }
                if (a.reads() && mem_[aid] != a.valueRead)
                    continue; // not enabled
                if (!a.writes() || a.valueWritten == mem_[aid]) {
                    // Silent: enabled and leaves memory unchanged.
                    apply(a, p);
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
    deadlocked()
    {
        for (std::size_t p = 0; p < idx_.size(); ++p) {
            if (idx_[p] >= seqs_[p].size())
                continue;
            const Access &a = head(p);
            if (!a.reads())
                continue;
            if (mem_[static_cast<std::size_t>(addrOf(a))] == a.valueRead)
                continue;
            AccInfo &info = info_[static_cast<std::size_t>(a.id)];
            if (info.readSlot == kUnresolved)
                info.readSlot = slotOf_.find({info.addr, a.valueRead});
            const int slot = info.readSlot;
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
        if (states_ >= maxStates_) {
            capped_ = true;
            return false;
        }
        ++states_;
        return true;
    }

    bool
    dfs()
    {
        int drained = drain();
        if (drained < 0)
            return false;
        bool found = dfsBranch();
        if (!found)
            unwind(drained);
        return found;
    }

    bool
    dfsBranch()
    {
        if (remaining_ == 0)
            return true;
        if (deadlocked())
            return false;
        if (!visited_.insert(key()))
            return false;
        if (!acquireState())
            return false;

        for (std::size_t p = 0; p < idx_.size(); ++p) {
            if (idx_[p] >= seqs_[p].size())
                continue;
            const Access &a = head(p);
            if (a.reads() &&
                mem_[static_cast<std::size_t>(addrOf(a))] != a.valueRead)
                continue; // not enabled: read value would be wrong
            apply(a, p);
            if (dfs())
                return true;
            unapply(p);
        }
        return false;
    }

    static constexpr int kUnresolved = -2; ///< AccInfo::readSlot not yet found

    /** What the search reads of one access, by trace id. */
    struct AccInfo
    {
        int addr = 0;       ///< address id
        int writeSlot = -1; ///< writersLeft_ counter of (addr, written)
        /** Counter of (addr, read value), or -1 if no write produces
         * it; looked up on first need, by deadlocked(). */
        int readSlot = kUnresolved;
    };

    struct DrainUndo
    {
        int addrId;
        Word oldValue;
        bool restore = true;
    };

    const Access *acc_ = nullptr; ///< trace.accesses().data()
    std::uint64_t maxStates_ = 0;
    std::vector<std::vector<int>> seqs_; ///< per-proc ids, program order
    std::vector<std::size_t> idx_;       ///< frontier, per processor
    FlatIdTable<Addr, hashAddr> addrId_;     ///< address -> address id
    FlatIdTable<LocValue, hashLocValue> slotOf_; ///< -> writersLeft_ slot
    std::vector<Word> mem_;         ///< frontier memory, by address id
    /** Sole toucher by address id; kNoProc once a second processor
     * touches it (a shared address). */
    std::vector<ProcId> toucher_;
    std::vector<AccInfo> info_;     ///< by access id
    std::vector<int> writersLeft_;  ///< pending writes per (addr, value)
    std::vector<int> sharedAddrs_;  ///< address ids with >1 toucher
    std::vector<std::uint64_t> keyScratch_; ///< reused by key()
    std::vector<DrainUndo> undo_;
    std::vector<int> witness_; ///< applied trace ids, oldest first
    int remaining_ = 0;
    std::uint64_t states_ = 0;
    bool capped_ = false;
    StateSet visited_;
};

ScVerifier::ScVerifier() : ws_(std::make_unique<Workspace>()) {}
ScVerifier::~ScVerifier() = default;

ScReport
ScVerifier::check(const ExecutionTrace &trace, const ScVerifierLimits &limits,
                  bool keepWitness)
{
    return ws_->check(trace, limits, keepWitness);
}

ScReport
verifySc(const ExecutionTrace &trace, const ScVerifierLimits &limits)
{
    return ScVerifier().check(trace, limits);
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
