#include "core/stream_checker.hh"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>
#include <unordered_map>

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
    for (ProcId p = 0; p < trace.numProcs(); ++p) {
        const std::vector<int> &ids = trace.accessesOf(p);
        if (!std::is_sorted(ids.begin(), ids.end()))
            return false;
    }
    for (Addr s : trace.syncAddrs()) {
        const std::vector<int> &ids = trace.syncsAt(s);
        if (!std::is_sorted(ids.begin(), ids.end()))
            return false;
    }
    return true;
}

} // namespace

StreamingDrf0Checker::StreamingDrf0Checker(int numProcs, RaceDetectMode mode)
    : det_(numProcs, mode), nprocs_(numProcs)
{
}

void
StreamingDrf0Checker::reset(int numProcs)
{
    det_.reset(numProcs);
    nprocs_ = numProcs;
    next_ = 0;
    fedAhead_.clear();
}

bool
StreamingDrf0Checker::isFed(int id) const
{
    if (id < next_)
        return true;
    return std::binary_search(fedAhead_.begin(), fedAhead_.end(), id);
}

void
StreamingDrf0Checker::markFed(int id)
{
    assert(id >= next_);
    if (id == next_) {
        ++next_;
        // Absorb any previously fed run that is now contiguous.
        std::size_t k = 0;
        while (k < fedAhead_.size() && fedAhead_[k] == next_) {
            ++next_;
            ++k;
        }
        if (k > 0)
            fedAhead_.erase(fedAhead_.begin(),
                            fedAhead_.begin() + static_cast<long>(k));
        return;
    }
    auto it = std::lower_bound(fedAhead_.begin(), fedAhead_.end(), id);
    fedAhead_.insert(it, id);
}

void
StreamingDrf0Checker::onAccess(const Access &a)
{
    assert(a.id == next_ && fedAhead_.empty());
    det_.onAccess(a);
    ++next_;
}

void
StreamingDrf0Checker::feedTopo(const ExecutionTrace &trace,
                               const std::vector<int> &batch)
{
    const int n = static_cast<int>(batch.size());
    if (n == 0)
        return;
    // Local indices 0..n-1 over batch (which is ascending in id).
    auto localOf = [&](int id) {
        auto it = std::lower_bound(batch.begin(), batch.end(), id);
        return static_cast<int>(it - batch.begin());
    };
    std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    auto addEdge = [&](int u, int v) {
        succ[static_cast<std::size_t>(u)].push_back(v);
        ++indeg[static_cast<std::size_t>(v)];
    };
    // po: consecutive same-proc members. Per-proc id order is record
    // order, i.e. program order, for every trace source that feeds this
    // checker.
    std::vector<int> lastOfProc(static_cast<std::size_t>(nprocs_), -1);
    // so: members that are syncs, per address in (commitTick, id) order.
    std::unordered_map<Addr, std::vector<int>> syncsByAddr;
    for (int k = 0; k < n; ++k) {
        const Access &a = trace.at(batch[static_cast<std::size_t>(k)]);
        if (a.proc >= 0) {
            if (lastOfProc[static_cast<std::size_t>(a.proc)] >= 0)
                addEdge(lastOfProc[static_cast<std::size_t>(a.proc)], k);
            lastOfProc[static_cast<std::size_t>(a.proc)] = k;
        }
        if (a.sync())
            syncsByAddr[a.addr].push_back(a.id);
    }
    for (auto &[addr, ids] : syncsByAddr) {
        std::sort(ids.begin(), ids.end(), [&](int x, int y) {
            const Access &ax = trace.at(x);
            const Access &ay = trace.at(y);
            if (ax.commitTick != ay.commitTick)
                return ax.commitTick < ay.commitTick;
            return x < y;
        });
        for (std::size_t k = 1; k < ids.size(); ++k)
            addEdge(localOf(ids[k - 1]), localOf(ids[k]));
    }
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    std::queue<int> ready;
    for (int k = 0; k < n; ++k) {
        if (indeg[static_cast<std::size_t>(k)] == 0)
            ready.push(k);
    }
    while (!ready.empty()) {
        int u = ready.front();
        ready.pop();
        order.push_back(u);
        for (int v : succ[static_cast<std::size_t>(u)]) {
            if (--indeg[static_cast<std::size_t>(v)] == 0)
                ready.push(v);
        }
    }
    // No idealized or simulated execution has a cyclic (po U so); only
    // a hand-built trace can, and it has no happens-before order to check.
    if (static_cast<int>(order.size()) != n)
        throw std::invalid_argument("cyclic (po U so) in trace");
    for (int k : order)
        det_.onAccess(trace.at(batch[static_cast<std::size_t>(k)]));
    for (int k = 0; k < n; ++k)
        markFed(batch[static_cast<std::size_t>(k)]);
}

int
StreamingDrf0Checker::drainWindow(const ExecutionTrace &trace, Tick now)
{
    // Admission horizon H: an access may be ordered now only if its
    // commit tick is strictly below every commit tick we do not yet
    // know. Unknown commits are (a) accesses not yet committed — they
    // will commit at or after `now` — and (b) committed-but-not-gp
    // accesses, whose trace record is still being patched.
    Tick h = now;
    for (const Access &a : trace.accesses()) {
        if (isFed(a.id) || isFinal(a))
            continue;
        if (a.commitTick != kNoTick && a.commitTick < h)
            h = a.commitTick;
    }

    // An admissible access whose program-order predecessor is not
    // admissible cannot be fed (po would be violated); if such an access
    // exists, its commit tick is itself an unknown-order point for the
    // synchronization order, so it lowers the horizon. Iterate to a
    // fixpoint — H only shrinks, so this terminates.
    std::vector<char> blocked(static_cast<std::size_t>(
                                  std::max(nprocs_, trace.numProcs())),
                              0);
    bool again = true;
    while (again) {
        again = false;
        std::fill(blocked.begin(), blocked.end(), 0);
        for (const Access &a : trace.accesses()) {
            if (isFed(a.id))
                continue;
            const bool admissible = isFinal(a) && a.commitTick < h;
            std::size_t p = static_cast<std::size_t>(a.proc);
            if (!admissible) {
                blocked[p] = 1;
                continue;
            }
            if (blocked[p] && a.commitTick < h) {
                h = a.commitTick;
                again = true;
                break;
            }
        }
    }

    std::vector<int> batch;
    std::fill(blocked.begin(), blocked.end(), 0);
    for (const Access &a : trace.accesses()) {
        if (isFed(a.id))
            continue;
        std::size_t p = static_cast<std::size_t>(a.proc);
        if (!(isFinal(a) && a.commitTick < h) || blocked[p]) {
            blocked[p] = 1;
            continue;
        }
        batch.push_back(a.id);
    }
    feedTopo(trace, batch);
    return static_cast<int>(batch.size());
}

int
StreamingDrf0Checker::retireReady(const ExecutionTrace &trace) const
{
    int n = next_ - trace.firstId();
    if (n < 0)
        n = 0;
    if (n > trace.resident())
        n = trace.resident();
    return n;
}

void
StreamingDrf0Checker::finish(const ExecutionTrace &trace)
{
    if (next_ == trace.firstId() && fedAhead_.empty() &&
        traceOrderIsLinearExtension(trace)) {
        // Nothing consumed yet and trace order is already a linear
        // extension (every whole idealized trace): feed it as is.
        for (const Access &a : trace.accesses())
            onAccess(a);
        return;
    }
    std::vector<int> batch;
    for (const Access &a : trace.accesses()) {
        if (!isFed(a.id))
            batch.push_back(a.id);
    }
    feedTopo(trace, batch);
}

std::vector<Race>
StreamingDrf0Checker::sortedRaces() const
{
    std::vector<Race> out = det_.races();
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace wo
