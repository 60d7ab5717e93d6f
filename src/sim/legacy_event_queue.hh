/**
 * @file
 * The historical event kernel, kept verbatim as a differential oracle.
 *
 * This is the std::priority_queue<std::function> implementation the
 * pooled EventQueue replaced. It is NOT used by the simulator; it exists
 * so that tests/test_event_queue.cc can assert the pooled kernel fires
 * the exact same (tick, id) sequence for randomized self-scheduling
 * workloads (golden event-order determinism).
 *
 * Semantics: identical to EventQueue — events fire in (tick, insertion
 * seq) order; past-tick scheduling throws std::logic_error.
 */

#ifndef WO_SIM_LEGACY_EVENT_QUEUE_HH
#define WO_SIM_LEGACY_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/types.hh"

namespace wo {

/** Reference kernel: one heap-allocated std::function per event. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    LegacyEventQueue() = default;

    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Tick now() const { return now_; }

    void
    scheduleAt(Tick when, Callback fn)
    {
        if (when < now_)
            throw std::logic_error(
                "LegacyEventQueue::scheduleAt: event scheduled in the "
                "past");
        events_.push(Entry{when, next_seq_++, std::move(fn)});
    }

    void
    scheduleAfter(Tick delay, Callback fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    bool empty() const { return events_.empty(); }
    std::size_t pending() const { return events_.size(); }
    std::uint64_t executed() const { return executed_; }

    bool
    step()
    {
        if (events_.empty())
            return false;
        // priority_queue::top() returns a const ref; the callback must
        // be moved out before pop, so copy the entry (one std::function).
        Entry e = events_.top();
        events_.pop();
        now_ = e.when;
        ++executed_;
        e.fn();
        return true;
    }

    bool
    run(Tick max_ticks = kNoTick)
    {
        while (!events_.empty()) {
            if (events_.top().when > max_ticks)
                return false;
            step();
        }
        return true;
    }

    void
    reset()
    {
        while (!events_.empty())
            events_.pop();
        now_ = 0;
        next_seq_ = 0;
        executed_ = 0;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> events_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace wo

#endif // WO_SIM_LEGACY_EVENT_QUEUE_HH
