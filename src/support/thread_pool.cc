#include "support/thread_pool.h"

#include <algorithm>

namespace balign {

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned workers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::unqueue(const std::shared_ptr<Job> &job)
{
    const auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end())
        queue_.erase(it);
}

void
ThreadPool::runItem(std::unique_lock<std::mutex> &lock,
                    const std::shared_ptr<Job> &job, std::size_t index)
{
    lock.unlock();
    std::exception_ptr error;
    try {
        (*job->fn)(index);
    } catch (...) {
        error = std::current_exception();
    }
    lock.lock();
    if (error) {
        if (!job->error)
            job->error = error;
        // Skip the unclaimed remainder; claimed items drain naturally.
        job->next = job->n;
        unqueue(job);
    }
    --job->active;
    if (job->next >= job->n && job->active == 0)
        job->done.notify_all();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        idle_.fetch_add(1, std::memory_order_relaxed);
        work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        idle_.fetch_sub(1, std::memory_order_relaxed);
        if (stop_)
            return;
        const std::shared_ptr<Job> job = queue_.front();
        const std::size_t index = job->next++;
        ++job->active;
        if (job->next >= job->n)
            queue_.pop_front();
        runItem(lock, job, index);
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    const auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &fn;

    std::unique_lock<std::mutex> lock(mutex_);
    if (!workers_.empty() && n > 1) {
        queue_.push_back(job);
        work_.notify_all();
    } else {
        // Serial pool (or single item): the caller runs everything below.
        job->next = 0;
    }

    // The caller participates until no unclaimed items remain.
    while (job->next < job->n) {
        const std::size_t index = job->next++;
        ++job->active;
        if (job->next >= job->n)
            unqueue(job);
        runItem(lock, job, index);
    }
    job->done.wait(lock,
                   [&] { return job->next >= job->n && job->active == 0; });
    if (job->error)
        std::rethrow_exception(job->error);
}

}  // namespace balign
