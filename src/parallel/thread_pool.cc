#include "parallel/thread_pool.hh"

#include <atomic>
#include <memory>

namespace wo {

ThreadPool::ThreadPool(int numThreads)
{
    if (numThreads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        numThreads = hw ? static_cast<int>(hw) : 1;
    }
    workers_.reserve(static_cast<std::size_t>(numThreads));
    for (int i = 0; i < numThreads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        queue_.push_back(std::move(job));
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    idleCv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        workCv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            // stopping_ set and nothing left: the queue is drained
            // before shutdown, so pending jobs always run.
            return;
        }
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lk.unlock();
        try {
            job();
        } catch (...) {
            std::unique_lock<std::mutex> elk(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        lk.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            idleCv_.notify_all();
    }
}

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t, int)> &body)
{
    if (n == 0)
        return;
    const int helpers = pool.numThreads();
    if (n == 1) {
        body(0, helpers);
        return;
    }

    // Shared by the caller and the helper jobs. Helpers hold a
    // shared_ptr so a helper scheduled after the caller returned (all
    // indices already claimed) still has valid state to look at.
    struct State
    {
        std::function<void(std::size_t, int)> body;
        std::size_t n;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> completed{0};
        std::atomic<bool> abort{false};
        std::mutex mu;
        std::condition_variable done;
        std::exception_ptr error;
    };
    auto st = std::make_shared<State>();
    st->body = body;
    st->n = n;

    auto work = [](const std::shared_ptr<State> &s, int worker) {
        std::size_t i;
        while ((i = s->next.fetch_add(1)) < s->n) {
            if (!s->abort.load(std::memory_order_relaxed)) {
                try {
                    s->body(i, worker);
                } catch (...) {
                    std::unique_lock<std::mutex> lk(s->mu);
                    if (!s->error)
                        s->error = std::current_exception();
                    s->abort.store(true, std::memory_order_relaxed);
                }
            }
            // Claimed indices are counted even when skipped after an
            // abort, so `completed == n` always terminates the wait.
            if (s->completed.fetch_add(1) + 1 == s->n) {
                std::unique_lock<std::mutex> lk(s->mu);
                s->done.notify_all();
            }
        }
    };

    for (int h = 0; h < helpers; ++h)
        pool.submit([st, work, h] { work(st, h); });

    // The caller participates too: nested calls from inside a pool job
    // cannot deadlock because the caller alone can finish every index.
    work(st, helpers);

    {
        std::unique_lock<std::mutex> lk(st->mu);
        st->done.wait(lk, [&] { return st->completed.load() >= st->n; });
    }
    if (st->error)
        std::rethrow_exception(st->error);
}

} // namespace wo
