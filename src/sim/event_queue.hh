/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Every timing component of the simulator (caches, directories,
 * interconnects, processors) schedules callbacks on one EventQueue. Events
 * scheduled for the same tick fire in the order they were scheduled, which
 * makes whole-system runs bit-for-bit reproducible for a given seed.
 *
 * Event records are pooled: callbacks are constructed into fixed-size
 * slab-allocated records (small-buffer storage for the callable, heap
 * fallback only for oversized captures) and recycled through a free list,
 * so the steady-state schedule/fire path performs no per-event
 * allocation.
 *
 * The pending set has two tiers. An event due less than kWheelSpan ticks
 * ahead goes into a calendar ring: one FIFO bucket per tick, linked
 * through the records themselves, with a 64-bit occupancy mask to find
 * the next busy tick. Every bucket event lies in [now, now + kWheelSpan),
 * so each bucket holds exactly one tick, and appending keeps it in
 * schedule order. A farther event goes into an overflow binary heap of
 * (tick, seq, record*) triples. On a tie the overflow tier fires first:
 * an overflow event for tick t was scheduled at or before t - kWheelSpan,
 * and a bucket event for t after it, so the overflow event has the
 * smaller sequence number. Ordering is therefore identical to the
 * historical std::priority_queue<std::function> kernel (see
 * sim/legacy_event_queue.hh, kept as the differential oracle), so runs
 * are bit-for-bit identical to it.
 */

#ifndef WO_SIM_EVENT_QUEUE_HH
#define WO_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace wo {

/**
 * A time-ordered queue of callbacks driving the simulation.
 *
 * The queue is strictly deterministic: ties in scheduled time are broken by
 * insertion sequence number.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * Scheduling in the past is a caller bug: throws std::logic_error
     * (in every build type — a silently late event would desynchronize
     * the simulation irrecoverably).
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        if (when < now_)
            throw std::logic_error(
                "EventQueue::scheduleAt: event scheduled in the past "
                "(when=" + std::to_string(when) +
                ", now=" + std::to_string(now_) + ")");
        Event *ev = allocate();
        bindCallback(*ev, std::forward<F>(fn));
        if (when - now_ < kWheelSpan) {
            Bucket &b = wheel_[when & kWheelMask];
            if (b.tail)
                b.tail->next_free = ev;
            else
                b.head = ev;
            b.tail = ev;
            occupied_ |= std::uint64_t{1} << (when & kWheelMask);
            ++wheel_count_;
        } else {
            heap_.push_back(HeapEntry{when, next_seq_, ev});
            siftUp(heap_.size() - 1);
        }
        ++next_seq_;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /** True when no events remain. */
    bool empty() const { return wheel_count_ == 0 && heap_.empty(); }

    /** Number of events still pending. */
    std::size_t pending() const { return wheel_count_ + heap_.size(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run a single event (the earliest). Returns false if the queue was
     * empty.
     */
    bool step() { return fireNext(kNoTick); }

    /**
     * Run until the queue drains or @p max_ticks is exceeded.
     *
     * @return true if the queue drained, false if the tick limit was hit
     *         (which usually indicates livelock in a protocol under test).
     */
    bool run(Tick max_ticks = kNoTick);

    /**
     * Reset time to zero for reuse (the event pool is retained).
     *
     * A reset with events still pending is almost always a caller bug —
     * silently dropping them would desynchronize whatever component
     * scheduled them — so it throws std::logic_error in every build
     * type unless @p drain is explicitly passed. Pass drain=true only
     * when abandoning a run known to have pending work (e.g. one that
     * hit its livelock tick limit).
     */
    void reset(bool drain = false);

    /** Ticks ahead (exclusive) served by the calendar ring; farther
     * events go to the overflow heap. */
    static constexpr Tick kWheelSpan = 64;

  private:
    static constexpr Tick kWheelMask = kWheelSpan - 1;
    static_assert((kWheelSpan & kWheelMask) == 0 && kWheelSpan <= 64,
                  "the occupancy mask is one 64-bit word");

    /** Bytes of in-record callable storage. Sized to hold the kernel's
     * common customers — a captured [this] plus a Msg by value — without
     * spilling; larger callables fall back to one heap allocation. */
    static constexpr std::size_t kInlineCallbackBytes = 72;

    /** Events allocated per slab chunk. */
    static constexpr std::size_t kSlabEvents = 256;

    /**
     * One pooled event record. The callable lives in `storage` (or, if
     * it does not fit, `storage` holds a pointer to a heap copy);
     * `invoke`/`destroy` are the manual vtable for the erased type.
     * `next_free` links the free list, or a pending record's bucket.
     */
    struct Event
    {
        void (*invoke)(Event &) = nullptr;
        void (*destroy)(Event &) = nullptr;
        Event *next_free = nullptr;
        alignas(std::max_align_t) unsigned char
            storage[kInlineCallbackBytes];
    };

    /** One calendar tick: a FIFO of records in schedule order. */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /** Overflow-heap element: all ordering state, plus the payload
     * pointer. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    template <typename F>
    static void
    bindCallback(Event &ev, F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(ev.storage))
                Fn(std::forward<F>(fn));
            ev.invoke = [](Event &e) {
                (*std::launder(reinterpret_cast<Fn *>(e.storage)))();
            };
            ev.destroy = [](Event &e) {
                std::launder(reinterpret_cast<Fn *>(e.storage))->~Fn();
            };
        } else {
            // Oversized capture: spill to the heap, store the pointer.
            ::new (static_cast<void *>(ev.storage))
                (Fn *)(new Fn(std::forward<F>(fn)));
            ev.invoke = [](Event &e) {
                (**std::launder(reinterpret_cast<Fn **>(e.storage)))();
            };
            ev.destroy = [](Event &e) {
                delete *std::launder(reinterpret_cast<Fn **>(e.storage));
            };
        }
    }

    /** True when @p a fires strictly before @p b. */
    static bool
    firesBefore(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    Event *
    allocate()
    {
        if (!free_list_)
            refill();
        Event *ev = free_list_;
        free_list_ = ev->next_free;
        ev->next_free = nullptr;
        return ev;
    }

    /** Fire the earliest pending event if it is due by @p max_ticks;
     * false if none is. */
    bool fireNext(Tick max_ticks);

    void refill();
    void release(Event *ev);
    void destroyPending();
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::array<Bucket, kWheelSpan> wheel_{}; ///< indexed by tick mod span
    std::uint64_t occupied_ = 0; ///< bit i: wheel_[i] is non-empty
    std::size_t wheel_count_ = 0;
    std::vector<HeapEntry> heap_; ///< overflow min-heap by (when, seq)
    std::vector<std::unique_ptr<Event[]>> slabs_;
    Event *free_list_ = nullptr;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace wo

#endif // WO_SIM_EVENT_QUEUE_HH
