/**
 * @file
 * StateSet: the visited-state set shared by the exhaustive searches (the
 * DRF0 program check, SC outcome enumeration and the SC verifier), and
 * EpochSlots, the open-addressing table under it.
 */

#ifndef WO_CORE_STATE_SET_HH
#define WO_CORE_STATE_SET_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wo {

/**
 * Open addressing with linear probing at load factor <= 1/2, emptied in
 * O(1) by bumping an epoch: a slot whose stamp is not the current epoch
 * is free. Capacity survives clear(), so a warm table allocates nothing.
 * Slot must have a `stamp` member; an all-zero stamp is never current.
 */
template <class Slot>
class EpochSlots
{
  public:
    void
    clear()
    {
        count_ = 0;
        if (++epoch_ == 0) { // wrapped: stale stamps would look live
            for (Slot &s : slots_)
                s.stamp = 0;
            epoch_ = 1;
        }
    }

    bool live(const Slot &s) const { return s.stamp == epoch_; }

    /** Probe from @p hash until @p match(slot) or a free slot. */
    template <class Match>
    std::size_t
    probe(std::uint64_t hash, Match match) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(hash) & mask;
        while (live(slots_[i]) && !match(slots_[i]))
            i = (i + 1) & mask;
        return i;
    }

    /** Make room for one more entry; @p hashOf rehashes live slots. */
    template <class HashOf>
    void
    reserveOne(HashOf hashOf)
    {
        if (2 * (count_ + 1) <= slots_.size())
            return;
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
        auto noMatch = [](const Slot &) { return false; };
        for (const Slot &s : old) {
            if (live(s))
                slots_[probe(hashOf(s), noMatch)] = s;
        }
    }

    /** Fill free slot @p i (from probe()). */
    void
    put(std::size_t i, Slot s)
    {
        s.stamp = epoch_;
        slots_[i] = s;
        ++count_;
    }

    const Slot &operator[](std::size_t i) const { return slots_[i]; }
    std::size_t size() const { return count_; }

  private:
    std::vector<Slot> slots_;
    std::uint32_t epoch_ = 1;
    std::size_t count_ = 0;
};

/** FNV-1a style hash over a span of key words. */
inline std::uint64_t
hashKeySpan(const std::uint64_t *v, std::size_t len)
{
    // Salt with the span length and each element's position so keys
    // that are permutations of each other (frequent among frontier
    // states: same values at swapped indices) do not collide into the
    // same probe runs.
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
 * A set of search states, each a key of a fixed number of words.
 *
 * Keys are copied into blocks that double in size up to kMaxBlockWords
 * and never move, so growing the set never copies a key it holds; the
 * table stores a pointer to each key and the low half of its hash. A
 * state costs its key words plus two to four 16-byte slots. reset()
 * keeps every block and the table's capacity, so a warm set refilled
 * with keys of the same length allocates nothing until it outgrows them.
 */
class StateSet
{
  public:
    explicit StateSet(std::size_t keyLen = 0) : len_(keyLen) {}

    /** Forget every key; keys are @p keyLen words from now on. */
    void
    reset(std::size_t keyLen)
    {
        len_ = keyLen;
        block_ = 0;
        for (std::vector<std::uint64_t> &b : blocks_)
            b.clear();
        slots_.clear();
    }

    /** Insert @p key; false if already present. Throws std::logic_error
     * unless the key has the set's length. */
    bool
    insert(std::span<const std::uint64_t> key)
    {
        if (key.size() != len_) [[unlikely]]
            throw std::logic_error(
                "StateSet: a " + std::to_string(key.size()) +
                "-word key in a set of " + std::to_string(len_) +
                "-word keys");
        slots_.reserveOne([](const Slot &s) { return s.hash; });
        const std::uint64_t h = hashKeySpan(key.data(), len_);
        const auto low = static_cast<std::uint32_t>(h);
        std::size_t i = slots_.probe(h, [&](const Slot &s) {
            return s.hash == low && std::equal(key.begin(), key.end(), s.key);
        });
        if (slots_.live(slots_[i]))
            return false;
        slots_.put(i, {store(key), low, 0});
        return true;
    }

    /** Number of keys inserted since the last reset(). */
    std::size_t size() const { return slots_.size(); }

  private:
    static constexpr std::size_t kFirstBlockWords = 256;
    static constexpr std::size_t kMaxBlockWords = std::size_t{1} << 16;

    struct Slot
    {
        const std::uint64_t *key = nullptr;
        std::uint32_t hash = 0; ///< low half: table sizes stay below 2^32
        std::uint32_t stamp = 0;
    };

    /** Copy @p key into the current block, opening the next one (kept
     * from before reset(), or new) when it would outgrow its capacity. */
    const std::uint64_t *
    store(std::span<const std::uint64_t> key)
    {
        while (block_ < blocks_.size() &&
               blocks_[block_].size() + len_ > blocks_[block_].capacity())
            ++block_;
        if (block_ == blocks_.size()) {
            const std::size_t words =
                blocks_.empty()
                    ? kFirstBlockWords
                    : std::min(2 * blocks_.back().capacity(), kMaxBlockWords);
            blocks_.emplace_back().reserve(std::max(words, len_));
        }
        std::vector<std::uint64_t> &b = blocks_[block_];
        b.insert(b.end(), key.begin(), key.end());
        return b.data() + b.size() - len_;
    }

    std::size_t len_ = 0;
    /** Key storage; a block never grows past the capacity it was
     * reserved with, so its keys never move. */
    std::vector<std::vector<std::uint64_t>> blocks_;
    std::size_t block_ = 0; ///< the block being filled
    EpochSlots<Slot> slots_;
};

} // namespace wo

#endif // WO_CORE_STATE_SET_HH
