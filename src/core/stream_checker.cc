#include "core/stream_checker.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

namespace wo {

namespace {

bool
isFinal(const Access &a)
{
    return a.commitTick != kNoTick && a.gpTick != kNoTick;
}

/**
 * True iff trace order already linearizes (po U so) over the resident
 * accesses: every processor's accesses appear in program order and every
 * sync location's operations in commit order. Holds for every
 * idealized-machine trace (accesses are recorded at execution,
 * atomically), letting finish() feed the detector with no sorting or
 * graph work at all.
 */
bool
traceOrderIsLinearExtension(const ExecutionTrace &trace)
{
    // In trace order, poIndex never falls within a processor and
    // commitTick never falls within a sync location.
    std::vector<int> lastPo(static_cast<std::size_t>(trace.numProcs()),
                            std::numeric_limits<int>::min());
    std::map<Addr, Tick> lastCommit;
    for (const Access &a : trace.accesses()) {
        if (a.proc >= 0) {
            int &po = lastPo[static_cast<std::size_t>(a.proc)];
            if (a.poIndex < po)
                return false;
            po = a.poIndex;
        }
        if (a.sync()) {
            Tick &commit = lastCommit[a.addr];
            if (a.commitTick < commit)
                return false;
            commit = a.commitTick;
        }
    }
    return true;
}

} // namespace

StreamingDrf0Checker::StreamingDrf0Checker(int numProcs, RaceDetectMode mode)
    : det_(numProcs, mode), fedThrough_(static_cast<std::size_t>(numProcs), -1)
{
}

void
StreamingDrf0Checker::reset(int numProcs)
{
    det_.reset(numProcs);
    next_ = 0;
    fedThrough_.assign(static_cast<std::size_t>(numProcs), -1);
}

std::size_t
StreamingDrf0Checker::startPass(const ExecutionTrace &trace)
{
    const auto procs = static_cast<std::size_t>(trace.numProcs());
    if (procs > fedThrough_.size())
        fedThrough_.resize(procs, -1);
    return static_cast<std::size_t>(retireReady(trace));
}

bool
StreamingDrf0Checker::isFed(const Access &a) const
{
    if (a.id < next_)
        return true;
    // The unsigned compare also rejects kNoProc (-1): an access with no
    // processor has no program order to place it in.
    const auto p = static_cast<std::size_t>(a.proc);
    if (p >= fedThrough_.size())
        throw std::invalid_argument("trace access " + std::to_string(a.id) +
                                    " has no processor");
    return a.id <= fedThrough_[p];
}

void
StreamingDrf0Checker::onAccess(const Access &a)
{
    // Checked in every build: a misordered feed would let the owner
    // retire accesses the detector never saw.
    if (a.id != next_) [[unlikely]]
        throw std::logic_error("streaming DRF0 feed out of order: access " +
                               std::to_string(a.id) + " arrived at frontier " +
                               std::to_string(next_));
    det_.onAccess(a);
    ++next_;
}

void
StreamingDrf0Checker::feedTopo(const ExecutionTrace &trace,
                               const std::vector<int> &batch)
{
    const std::size_t n = batch.size();
    const std::span<const Access> acc = trace.accesses();
    auto member = [&](int k) -> const Access & {
        const int id = batch[static_cast<std::size_t>(k)];
        return acc[static_cast<std::size_t>(id - trace.firstId())];
    };
    // Local indices 0..n-1 over batch (ascending in id). Each member's po
    // successor is the next member of its processor (per-proc id order is
    // program order for every trace source); its so successor is the next
    // member syncing on its address, in (commitTick, id) order.
    poSucc_.assign(n, -1);
    soSucc_.assign(n, -1);
    indeg_.assign(n, 0);
    auto link = [&](std::vector<int> &succ, int u, int v) {
        succ[static_cast<std::size_t>(u)] = v;
        ++indeg_[static_cast<std::size_t>(v)];
    };
    lastOfProc_.assign(fedThrough_.size(), -1);
    syncs_.clear();
    for (int k = 0; k < static_cast<int>(n); ++k) {
        const Access &a = member(k);
        int &last = lastOfProc_[static_cast<std::size_t>(a.proc)];
        if (last >= 0)
            link(poSucc_, last, k);
        last = k;
        if (a.sync())
            syncs_.push_back(k);
    }
    std::sort(syncs_.begin(), syncs_.end(), [&](int x, int y) {
        const Access &ax = member(x), &ay = member(y);
        return std::tie(ax.addr, ax.commitTick, x) <
               std::tie(ay.addr, ay.commitTick, y);
    });
    for (std::size_t i = 1; i < syncs_.size(); ++i) {
        if (member(syncs_[i - 1]).addr == member(syncs_[i]).addr)
            link(soSucc_, syncs_[i - 1], syncs_[i]);
    }
    // Kahn's algorithm with order_ as its FIFO queue: the initial ready
    // set in ascending batch order, then po successor before so
    // successor. FirstRace reports depend on this exact order.
    order_.clear();
    for (int k = 0; k < static_cast<int>(n); ++k) {
        if (indeg_[static_cast<std::size_t>(k)] == 0)
            order_.push_back(k);
    }
    for (std::size_t head = 0; head < order_.size(); ++head) {
        const auto u = static_cast<std::size_t>(order_[head]);
        for (int v : {poSucc_[u], soSucc_[u]}) {
            if (v >= 0 && --indeg_[static_cast<std::size_t>(v)] == 0)
                order_.push_back(v);
        }
    }
    // No idealized or simulated execution has a cyclic (po U so); only
    // a hand-built trace can, and it has no happens-before order to check.
    if (order_.size() != n)
        throw std::invalid_argument("cyclic (po U so) in trace");
    for (int k : order_)
        det_.onAccess(member(k));
    for (int id : batch)
        fedThrough_[static_cast<std::size_t>(trace.at(id).proc)] = id;
    // Advance the frontier past the now-contiguous consumed prefix.
    while (next_ >= trace.firstId() && next_ < trace.size() &&
           isFed(trace.at(next_)))
        ++next_;
}

int
StreamingDrf0Checker::drainWindow(const ExecutionTrace &trace, Tick now)
{
    const std::size_t tail = startPass(trace);
    const std::span<const Access> acc = trace.accesses();

    // Admission horizon H: an access may be ordered now only if its
    // commit tick is strictly below every commit tick we do not yet
    // know. Unknown commits are (a) accesses not yet committed — they
    // will commit at or after `now` — and (b) committed-but-not-gp
    // accesses, whose trace record is still being patched.
    Tick h = now;
    for (std::size_t i = tail; i < acc.size(); ++i) {
        const Access &a = acc[i];
        if (isFed(a) || isFinal(a))
            continue;
        if (a.commitTick != kNoTick && a.commitTick < h)
            h = a.commitTick;
    }

    // An admissible access whose program-order predecessor is not
    // admissible cannot be fed (po would be violated); if such an access
    // exists, its commit tick is itself an unknown-order point for the
    // synchronization order, so it lowers the horizon. Iterate to a
    // fixpoint — H only shrinks, so this terminates. The pass that
    // converges has collected each processor's admissible unfed prefix.
    for (bool again = true; again;) {
        again = false;
        batch_.clear();
        blocked_.assign(fedThrough_.size(), 0);
        for (std::size_t i = tail; i < acc.size() && !again; ++i) {
            const Access &a = acc[i];
            if (isFed(a))
                continue;
            char &blocked = blocked_[static_cast<std::size_t>(a.proc)];
            if (!isFinal(a) || a.commitTick >= h) {
                blocked = 1;
            } else if (blocked) {
                h = a.commitTick;
                again = true;
            } else {
                batch_.push_back(a.id);
            }
        }
    }
    feedTopo(trace, batch_);
    return static_cast<int>(batch_.size());
}

int
StreamingDrf0Checker::retireReady(const ExecutionTrace &trace) const
{
    return std::clamp(next_ - trace.firstId(), 0, trace.resident());
}

void
StreamingDrf0Checker::finish(const ExecutionTrace &trace)
{
    const std::size_t tail = startPass(trace);
    const bool noneFedAhead =
        std::all_of(fedThrough_.begin(), fedThrough_.end(),
                    [&](int id) { return id < next_; });
    if (next_ == trace.firstId() && noneFedAhead &&
        traceOrderIsLinearExtension(trace)) {
        // Nothing consumed yet and trace order is already a linear
        // extension (every whole idealized trace): feed it as is.
        for (const Access &a : trace.accesses())
            onAccess(a);
        return;
    }
    const std::span<const Access> acc = trace.accesses();
    batch_.clear();
    for (std::size_t i = tail; i < acc.size(); ++i) {
        if (!isFed(acc[i]))
            batch_.push_back(acc[i].id);
    }
    feedTopo(trace, batch_);
}

std::vector<Race>
StreamingDrf0Checker::sortedRaces() const
{
    std::vector<Race> out = det_.races();
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace wo
