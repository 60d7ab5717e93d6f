#include "core/race_detector.hh"

#include <algorithm>

namespace wo {

RaceDetector::RaceDetector(int numProcs, RaceDetectMode mode)
    : mode_(mode)
{
    reset(numProcs);
}

void
RaceDetector::reset(int numProcs)
{
    nprocs_ = numProcs;
    clocks_.resize(static_cast<std::size_t>(numProcs));
    for (VectorClock &c : clocks_)
        c.clear();
    vars_.clear();
    races_.clear();
    seen_ = 0;
}

void
RaceDetector::record(int a, int b)
{
    if (a > b)
        std::swap(a, b);
    races_.push_back({a, b});
}

void
RaceDetector::onAccess(const Access &a)
{
    if (a.proc < 0)
        return; // hypothetical initializing writes are hb-first
    if (mode_ == RaceDetectMode::FirstRace && hasRace())
        return;
    if (a.proc >= nprocs_) {
        nprocs_ = a.proc + 1;
        clocks_.resize(static_cast<std::size_t>(nprocs_));
    }
    ++seen_;

    VectorClock &cp = clocks_[static_cast<std::size_t>(a.proc)];
    VarState &v = vars_[a.addr];
    if (a.sync()) {
        // Acquire: the previous sync at this location (and everything
        // happening-before it) happens-before this access. The release
        // clock is empty until the location's first sync.
        cp.join(v.release);
    }
    const std::uint32_t c = cp.tick(a.proc);
    const bool rd = a.reads();
    const bool wr = a.writes();

    if (mode_ == RaceDetectMode::AllRaces) {
        // Check against every prior conflicting access here. Each test
        // is an O(1) epoch-vs-clock comparison; hb(h, a) is the only
        // possible ordering since we consume a linear extension.
        const bool readOnly = rd && !wr;
        for (const HistEntry &h : v.hist) {
            if (readOnly && h.readOnly)
                continue; // two reads never conflict
            if (h.clock > cp.get(h.proc))
                record(h.id, a.id);
        }
        v.hist.push_back({c, a.proc, a.id, readOnly});
    } else {
        // FastTrack epochs. Any access conflicts with the last write;
        // earlier writes are dominated by it (each write, admitted
        // race-free, happens-after the previous one), so one epoch
        // test covers them all.
        if (v.write.some() && !cp.covers(v.write)) {
            record(v.writeId, a.id);
            return;
        }
        if (wr) {
            // A write also conflicts with reads. While reads are
            // totally ordered one epoch suffices; once concurrent,
            // check the latest read of every processor (earlier reads
            // are po-dominated).
            if (!v.readsByProc.empty()) {
                for (std::size_t q = 0; q < v.readsByProc.size(); ++q) {
                    const ReadSlot &r = v.readsByProc[q];
                    if (r.clock &&
                        r.clock > cp.get(static_cast<ProcId>(q))) {
                        record(r.id, a.id);
                        return;
                    }
                }
            } else if (v.read.some() && !cp.covers(v.read)) {
                record(v.readId, a.id);
                return;
            }
            v.write = {c, a.proc};
            v.writeId = a.id;
        }
        if (rd) {
            if (v.readsByProc.empty()) {
                if (!v.read.some() || v.read.proc == a.proc ||
                    cp.covers(v.read)) {
                    // Still totally ordered: the new read dominates.
                    v.read = {c, a.proc};
                    v.readId = a.id;
                } else {
                    // Concurrent reads: widen to one slot per proc.
                    v.readsByProc.assign(
                        static_cast<std::size_t>(nprocs_), {});
                    v.readsByProc[static_cast<std::size_t>(v.read.proc)] =
                        {v.read.clock, v.readId};
                    v.readsByProc[static_cast<std::size_t>(a.proc)] =
                        {c, a.id};
                }
            } else {
                if (v.readsByProc.size() <
                    static_cast<std::size_t>(nprocs_)) {
                    v.readsByProc.resize(
                        static_cast<std::size_t>(nprocs_), {});
                }
                v.readsByProc[static_cast<std::size_t>(a.proc)] =
                    {c, a.id};
            }
        }
    }

    if (a.sync()) {
        // Release: this access's full clock (own tick included) becomes
        // the so-edge source for the next sync at this location.
        v.release = cp;
    }
}

} // namespace wo
