/**
 * @file
 * FifoVector: a FIFO queue on one vector that keeps its storage.
 *
 * pop_front() advances a head index. The vector is emptied, keeping its
 * capacity, whenever the queue drains, and the consumed prefix is
 * squeezed out before the vector would grow. So once warm it never
 * allocates, unlike std::deque, which allocates a node map even when
 * default-constructed or moved from and a new chunk each time the queue
 * crosses a chunk boundary.
 */

#ifndef WO_SIM_FIFO_VECTOR_HH
#define WO_SIM_FIFO_VECTOR_HH

#include <cstddef>
#include <vector>

namespace wo {

template <class T>
class FifoVector
{
  public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }

    const T &front() const { return items_[head_]; }

    void
    push_back(const T &v)
    {
        if (head_ > 0 && items_.size() == items_.capacity()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        items_.push_back(v);
    }

    void
    pop_front()
    {
        if (++head_ == items_.size())
            clear();
    }

    void
    clear()
    {
        items_.clear();
        head_ = 0;
    }

    /** Newest to oldest. */
    auto rbegin() const { return items_.rbegin(); }
    auto rend() const
    {
        return items_.rend() - static_cast<std::ptrdiff_t>(head_);
    }

  private:
    std::vector<T> items_;
    std::size_t head_ = 0;
};

} // namespace wo

#endif // WO_SIM_FIFO_VECTOR_HH
