/**
 * @file
 * Trace sinks: where structured TraceEvents go when tracing is on.
 *
 * TraceBuffer collects events in memory (with a component filter) for
 * later export; wo-trace attaches one to the single run it replays. One
 * buffer belongs to one System, so no sink is ever shared between
 * threads.
 */

#ifndef WO_OBS_TRACE_SINK_HH
#define WO_OBS_TRACE_SINK_HH

#include <vector>

#include "obs/trace_event.hh"

namespace wo {

/** Abstract destination for trace events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one event. Called only on the enabled path. */
    virtual void record(const TraceEvent &ev) = 0;
};

/** In-memory event collector with a component filter mask. */
class TraceBuffer : public TraceSink
{
  public:
    explicit TraceBuffer(std::uint32_t comp_mask = kAllTraceComps)
        : mask_(comp_mask)
    {}

    void
    record(const TraceEvent &ev) override
    {
        if (mask_ & traceCompBit(ev.comp))
            events_.push_back(ev);
    }

    const std::vector<TraceEvent> &events() const { return events_; }

    std::uint32_t mask() const { return mask_; }

    void clear() { events_.clear(); }

  private:
    std::uint32_t mask_;
    std::vector<TraceEvent> events_;
};

} // namespace wo

#endif // WO_OBS_TRACE_SINK_HH
