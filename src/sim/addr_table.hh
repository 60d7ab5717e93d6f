/**
 * @file
 * AddrTable: per-address component state in dense slots.
 *
 * A System's components only ever see the addresses its program touches
 * (instruction addresses plus initial values). The System binds that
 * ascending list once per loaded program, and every per-address table
 * (directory lines, cache lines and MSHRs, memory words) then finds an
 * address by a search of a small sorted array instead of walking a node
 * map. Slots stay in ascending address order, so walking them visits
 * addresses exactly as an address-keyed std::map would.
 *
 * Storage is kept: reset() returns every slot to its blank state in
 * place (through the entry's own reset() when it has one, so vectors
 * inside an entry keep their capacity), and bind() reuses the slots of
 * earlier, larger programs rather than freeing them. A warm table
 * therefore allocates nothing per run.
 *
 * A reference to a slot stays valid until the next bind() or until an
 * unbound address is added. A System binds every address its program can
 * name before a run, so no slot moves during the run. Components driven
 * without a System (unit tests) may still name any address: get() gives
 * an unbound address a new slot in its sorted place.
 */

#ifndef WO_SIM_ADDR_TABLE_HH
#define WO_SIM_ADDR_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace wo {

template <class T>
class AddrTable
{
  public:
    /** Give exactly the addresses in @p addrs (ascending, distinct) a
     * blank slot each. Storage from earlier bindings is reused. */
    void
    bind(const std::vector<Addr> &addrs)
    {
        addrs_.assign(addrs.begin(), addrs.end());
        if (slots_.size() < addrs_.size())
            slots_.resize(addrs_.size());
        reset();
    }

    /** Return every bound slot to its blank state, keeping storage. */
    void
    reset()
    {
        for (std::size_t i = 0; i < addrs_.size(); ++i)
            blank(slots_[i]);
    }

    /** The slot of @p a, or nullptr if @p a has none. */
    T *
    find(Addr a)
    {
        const std::size_t i = indexOf(a);
        return i < addrs_.size() && addrs_[i] == a ? &slots_[i] : nullptr;
    }

    const T *
    find(Addr a) const
    {
        const std::size_t i = indexOf(a);
        return i < addrs_.size() && addrs_[i] == a ? &slots_[i] : nullptr;
    }

    /** The slot of @p a, giving an unbound address a blank one (which
     * may move other slots). */
    T &
    get(Addr a)
    {
        const std::size_t i = indexOf(a);
        if (i < addrs_.size() && addrs_[i] == a)
            return slots_[i];
        addrs_.insert(addrs_.begin() + static_cast<std::ptrdiff_t>(i), a);
        if (slots_.size() < addrs_.size())
            slots_.emplace_back();
        // Rotate the spare slot (the first past the old bound end) into
        // place, so the slots after it keep their addresses' order.
        std::rotate(slots_.begin() + static_cast<std::ptrdiff_t>(i),
                    slots_.begin() +
                        static_cast<std::ptrdiff_t>(addrs_.size() - 1),
                    slots_.begin() +
                        static_cast<std::ptrdiff_t>(addrs_.size()));
        blank(slots_[i]);
        return slots_[i];
    }

    /** Number of bound addresses. */
    std::size_t size() const { return addrs_.size(); }

    /** The address of slot @p i (ascending in @p i). */
    Addr addrAt(std::size_t i) const { return addrs_[i]; }

    /** Slot @p i. */
    T &slot(std::size_t i) { return slots_[i]; }
    const T &slot(std::size_t i) const { return slots_[i]; }

  private:
    std::size_t
    indexOf(Addr a) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(addrs_.begin(), addrs_.end(), a) -
            addrs_.begin());
    }

    static void
    blank(T &t)
    {
        if constexpr (requires { t.reset(); })
            t.reset();
        else
            t = T{};
    }

    std::vector<Addr> addrs_;
    /** At least addrs_.size() slots; those past it are spares. */
    std::vector<T> slots_;
};

} // namespace wo

#endif // WO_SIM_ADDR_TABLE_HH
