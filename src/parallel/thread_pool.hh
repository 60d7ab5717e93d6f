/**
 * @file
 * A small fixed-size thread pool plus a deterministic parallelFor.
 *
 * The pool exists to fan *independent* jobs — campaign runs, per-execution
 * SC verifications, first-level branches of one verification — across
 * hardware threads. Determinism is the design constraint everywhere: jobs
 * never share mutable state, each job's effect lands in a slot indexed by
 * its job number, and callers merge results in job order, so a parallel
 * run is bit-identical to a serial one.
 *
 * parallelFor() is cooperative: the calling thread claims indices
 * alongside the workers, so it is safe to call from inside a pool job
 * (nested calls degrade to the caller doing the work) and a 1-thread pool
 * behaves exactly like a serial loop.
 */

#ifndef WO_PARALLEL_THREAD_POOL_HH
#define WO_PARALLEL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wo {

/** A fixed set of worker threads consuming a FIFO job queue. */
class ThreadPool
{
  public:
    /**
     * Spawn @p numThreads workers; 0 means one per hardware thread.
     * A pool always has at least one worker.
     */
    explicit ThreadPool(int numThreads = 0);

    /** Drains the queue, finishes running jobs, and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Enqueue one job. Jobs run in FIFO order across the workers. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished; rethrows the first
     * exception a job raised (subsequent ones are dropped).
     */
    void wait();

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< workers sleep here
    std::condition_variable idleCv_; ///< wait() sleeps here
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t active_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run body(0, w) ... body(n-1, w), each index exactly once, spread over
 * @p pool's workers and the calling thread. Returns when all n indices
 * completed; rethrows the first exception a body raised (remaining
 * indices are claimed but skipped once a body throws).
 *
 * Index-slot writes make this deterministic: body(i, w) must only write
 * state owned by index i — or by w, the number of the participant
 * running it (helper h of the pool's numThreads() helpers passes h, the
 * calling thread numThreads()). Each participant runs its bodies one at
 * a time, so state indexed by w needs no lock.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t, int)> &body);

} // namespace wo

#endif // WO_PARALLEL_THREAD_POOL_HH
