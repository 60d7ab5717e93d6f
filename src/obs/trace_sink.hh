/**
 * @file
 * The trace sink: where structured TraceEvents go when tracing is on.
 *
 * A TraceSink collects events in memory, keeping those whose component
 * passes its filter mask, for later export; wo-trace attaches one to
 * the single run it replays. One sink belongs to one System, so no sink
 * is ever shared between threads.
 */

#ifndef WO_OBS_TRACE_SINK_HH
#define WO_OBS_TRACE_SINK_HH

#include <vector>

#include "obs/trace_event.hh"

namespace wo {

/** In-memory event collector with a component filter mask. */
class TraceSink
{
  public:
    explicit TraceSink(std::uint32_t comp_mask = kAllTraceComps)
        : mask_(comp_mask)
    {}

    /** Consume one event. Called only on the enabled path. */
    void
    record(const TraceEvent &ev)
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
