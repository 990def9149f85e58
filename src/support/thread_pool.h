/**
 * @file
 * Work-sharing thread pool for the parallel experiment runner.
 *
 * The pool exposes one primitive, parallelFor(n, fn), which runs fn(i) for
 * every i in [0, n) across the pool's workers and the calling thread, and
 * returns when all items have finished. Because the caller always
 * participates, parallelFor may be invoked from inside a pool task (nested
 * parallelism) without risk of deadlock: the inner loop makes progress on
 * the caller's own thread even when every worker is busy.
 *
 * Determinism contract: the pool only schedules; it never reorders results.
 * Callers that write item i's output to slot i of a pre-sized vector get
 * results that are independent of thread count and scheduling, which is how
 * the experiment runner guarantees serial/parallel equivalence.
 *
 * A pool constructed with 1 thread spawns no workers at all; parallelFor
 * then degenerates to a plain serial loop on the calling thread.
 */

#ifndef BALIGN_SUPPORT_THREAD_POOL_H
#define BALIGN_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace balign {

class ThreadPool
{
  public:
    /// Creates a pool that runs work on @p threads threads total (the
    /// calling thread plus threads - 1 workers). @p threads is clamped to
    /// at least 1.
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /// Joins all workers. No parallelFor call may be in flight.
    ~ThreadPool();

    /// Total threads participating in parallelFor (workers + caller).
    unsigned threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

    /// Workers waiting for work right now: a snapshot that may be stale
    /// by the time the caller acts on it, good only for sizing work.
    unsigned idleThreads() const { return idle_.load(std::memory_order_relaxed); }

    /**
     * Runs fn(i) for each i in [0, n); blocks until every item completed.
     * Items are claimed dynamically (self-balancing). The first exception
     * thrown by any item is rethrown here after the remaining claimed items
     * drain; unclaimed items are skipped once an exception is recorded.
     *
     * Safe to call concurrently from multiple threads and from inside a
     * running item (nested use).
     */
    void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

  private:
    /// One parallelFor invocation: an index range shared by all threads.
    struct Job
    {
        std::size_t next = 0;    ///< next unclaimed index (guarded by mutex_)
        std::size_t n = 0;       ///< total items
        std::size_t active = 0;  ///< items currently executing
        const std::function<void(std::size_t)> *fn = nullptr;
        std::exception_ptr error;
        std::condition_variable done;
    };

    void workerLoop();
    /// Runs one claimed item outside the lock; returns with the lock held.
    void runItem(std::unique_lock<std::mutex> &lock,
                 const std::shared_ptr<Job> &job, std::size_t index);
    void unqueue(const std::shared_ptr<Job> &job);

    std::mutex mutex_;
    std::condition_variable work_;
    std::deque<std::shared_ptr<Job>> queue_;  ///< jobs with unclaimed items
    std::vector<std::thread> workers_;
    bool stop_ = false;
    std::atomic<unsigned> idle_{0};  ///< workers blocked in workerLoop's wait
};

}  // namespace balign

#endif  // BALIGN_SUPPORT_THREAD_POOL_H
