#include "sim/event_queue.hh"

#include <bit>

namespace wo {

EventQueue::~EventQueue()
{
    destroyPending();
}

void
EventQueue::refill()
{
    slabs_.push_back(std::make_unique<Event[]>(kSlabEvents));
    Event *chunk = slabs_.back().get();
    // Chain the fresh chunk in address order (order is irrelevant for
    // determinism — firing order comes from (when, seq) alone).
    for (std::size_t i = 0; i < kSlabEvents - 1; ++i)
        chunk[i].next_free = &chunk[i + 1];
    chunk[kSlabEvents - 1].next_free = nullptr;
    free_list_ = chunk;
}

void
EventQueue::release(Event *ev)
{
    ev->invoke = nullptr;
    ev->destroy = nullptr;
    ev->next_free = free_list_;
    free_list_ = ev;
}

void
EventQueue::destroyPending()
{
    for (Bucket &b : wheel_) {
        for (Event *ev = b.head; ev;) {
            Event *next = ev->next_free;
            ev->destroy(*ev);
            release(ev);
            ev = next;
        }
        b = Bucket{};
    }
    occupied_ = 0;
    wheel_count_ = 0;
    for (HeapEntry &e : heap_) {
        e.ev->destroy(*e.ev);
        release(e.ev);
    }
    heap_.clear();
}

void
EventQueue::siftUp(std::size_t i)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!firesBefore(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t left = 2 * i + 1;
        if (left >= n)
            break;
        std::size_t best = left;
        std::size_t right = left + 1;
        if (right < n && firesBefore(heap_[right], heap_[left]))
            best = right;
        if (!firesBefore(heap_[best], heap_[i]))
            break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

bool
EventQueue::fireNext(Tick max_ticks)
{
    Tick when = kNoTick;
    if (occupied_) {
        // Rotate so bit 0 is now's bucket: the lowest set bit is the
        // next busy tick's distance from now.
        when = now_ + std::countr_zero(std::rotr(
                          occupied_, static_cast<int>(now_ & kWheelMask)));
    }
    Event *ev;
    if (!heap_.empty() && heap_.front().when <= when) {
        // Ties go to the overflow tier: it holds the earlier seq.
        when = heap_.front().when;
        if (when > max_ticks)
            return false;
        ev = heap_.front().ev;
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    } else {
        if (!occupied_ || when > max_ticks)
            return false;
        Bucket &b = wheel_[when & kWheelMask];
        ev = b.head;
        b.head = ev->next_free;
        if (!b.head) {
            b.tail = nullptr;
            occupied_ &= ~(std::uint64_t{1} << (when & kWheelMask));
        }
        --wheel_count_;
    }
    now_ = when;
    ++executed_;
    // Fire in place: the record is stable while its callback schedules
    // further events (slab storage never relocates), and is recycled
    // only after the callback returns.
    ev->invoke(*ev);
    ev->destroy(*ev);
    release(ev);
    return true;
}

bool
EventQueue::run(Tick max_ticks)
{
    while (fireNext(max_ticks)) {
    }
    return empty();
}

void
EventQueue::reset(bool drain)
{
    if (!empty() && !drain)
        throw std::logic_error(
            "EventQueue::reset: " + std::to_string(pending()) +
            " events still pending (pass drain=true to drop them "
            "deliberately)");
    destroyPending();
    now_ = 0;
    next_seq_ = 0;
    executed_ = 0;
}

} // namespace wo
