/**
 * @file
 * Fixed-size worker pool for the suite-runner driver and the campaign
 * engine. Each simulation cell is a self-contained job (its own
 * System, traces, prefetchers), so the pool needs nothing beyond
 * submit/wait: no futures, no cancellation, no work stealing.
 *
 * A job that throws does not kill the process: the first exception is
 * captured and rethrown from the next wait(), after the queue has
 * drained (later exceptions are dropped — one failure already fails
 * the run). Destruction drains queued jobs before joining.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace gaze
{

/**
 * Resolve a requested worker count against the job count: 0 means
 * hardware concurrency, and there is never a point in more workers
 * than jobs. Shared by the campaign engine and the serve scheduler.
 */
inline uint32_t
resolvePoolThreads(uint32_t requested, size_t jobs)
{
    uint32_t n = requested;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    if (size_t(n) > jobs)
        n = static_cast<uint32_t>(jobs);
    return n < 1 ? 1 : n;
}

/** Runs submitted jobs on @p threads workers; wait() drains the queue. */
class ThreadPool
{
  public:
    explicit ThreadPool(uint32_t threads)
    {
        GAZE_ASSERT(threads >= 1, "thread pool needs at least one worker");
        workers.reserve(threads);
        for (uint32_t i = 0; i < threads; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::unique_lock<std::mutex> lock(mtx);
            stopping = true;
        }
        workAvailable.notify_all();
        for (auto &w : workers)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job; runs as soon as a worker is free. */
    void
    submit(std::function<void()> job)
    {
        {
            std::unique_lock<std::mutex> lock(mtx);
            GAZE_ASSERT(!stopping, "submit after shutdown");
            queue.push_back(std::move(job));
            ++pending;
        }
        workAvailable.notify_one();
    }

    /**
     * Block until every submitted job has finished, then rethrow the
     * first exception any job raised (the pool stays usable after).
     */
    void
    wait()
    {
        std::exception_ptr err;
        {
            std::unique_lock<std::mutex> lock(mtx);
            allDone.wait(lock, [this] { return pending == 0; });
            err = firstError;
            firstError = nullptr;
        }
        if (err)
            std::rethrow_exception(err);
    }

    size_t threadCount() const { return workers.size(); }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mtx);
                workAvailable.wait(lock, [this] {
                    return stopping || !queue.empty();
                });
                if (queue.empty())
                    return; // stopping, nothing left
                job = std::move(queue.front());
                queue.pop_front();
            }
            try {
                job();
            } catch (...) {
                std::unique_lock<std::mutex> lock(mtx);
                if (!firstError)
                    firstError = std::current_exception();
            }
            {
                std::unique_lock<std::mutex> lock(mtx);
                if (--pending == 0)
                    allDone.notify_all();
            }
        }
    }

    std::mutex mtx;
    std::condition_variable workAvailable;
    std::condition_variable allDone;
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    size_t pending = 0;
    bool stopping = false;
    std::exception_ptr firstError;
};

} // namespace gaze
