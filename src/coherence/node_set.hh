/**
 * @file
 * NodeSet: a directory's sharer list as a bitmask over node ids.
 *
 * Iteration is in ascending node order, which is the order a directory
 * sends its invalidations in. Node ids below 64 live in one inline word,
 * so a set for any machine of up to 64 nodes never allocates; larger
 * ids spill into extra words that are kept (zeroed, not freed) by
 * clear().
 */

#ifndef WO_COHERENCE_NODE_SET_HH
#define WO_COHERENCE_NODE_SET_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "sim/types.hh"

namespace wo {

class NodeSet
{
  public:
    NodeSet() = default;

    NodeSet(std::initializer_list<NodeId> nodes)
    {
        for (NodeId n : nodes)
            insert(n);
    }

    bool
    contains(NodeId n) const
    {
        const std::size_t w = word(n);
        return w < words() && (wordAt(w) >> bit(n) & 1u);
    }

    void
    insert(NodeId n)
    {
        const std::size_t w = word(n);
        if (w > high_.size())
            high_.resize(w, 0);
        wordRef(w) |= std::uint64_t{1} << bit(n);
    }

    void
    erase(NodeId n)
    {
        const std::size_t w = word(n);
        if (w < words())
            wordRef(w) &= ~(std::uint64_t{1} << bit(n));
    }

    void
    clear()
    {
        low_ = 0;
        for (std::uint64_t &h : high_)
            h = 0;
    }

    bool
    empty() const
    {
        for (std::size_t w = 0; w < words(); ++w) {
            if (wordAt(w))
                return false;
        }
        return true;
    }

    int
    size() const
    {
        int n = 0;
        for (std::size_t w = 0; w < words(); ++w)
            n += std::popcount(wordAt(w));
        return n;
    }

    /** Call @p f(node) for every member, ascending. */
    template <class F>
    void
    forEach(F &&f) const
    {
        for (std::size_t w = 0; w < words(); ++w) {
            for (std::uint64_t bits = wordAt(w); bits; bits &= bits - 1) {
                f(static_cast<NodeId>(w * 64 +
                                      static_cast<std::size_t>(
                                          std::countr_zero(bits))));
            }
        }
    }

  private:
    static std::size_t
    word(NodeId n)
    {
        return static_cast<std::size_t>(n) / 64;
    }

    static unsigned bit(NodeId n) { return static_cast<unsigned>(n) % 64; }

    std::size_t words() const { return 1 + high_.size(); }

    std::uint64_t
    wordAt(std::size_t w) const
    {
        return w ? high_[w - 1] : low_;
    }

    std::uint64_t &wordRef(std::size_t w) { return w ? high_[w - 1] : low_; }

    std::uint64_t low_ = 0;           ///< nodes 0..63
    std::vector<std::uint64_t> high_; ///< nodes 64 and up, 64 per word
};

} // namespace wo

#endif // WO_COHERENCE_NODE_SET_HH
