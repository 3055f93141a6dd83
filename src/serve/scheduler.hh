/**
 * @file
 * The daemon's cell scheduler: a priority work-queue over campaign
 * jobs, deduplicating by cell hash at every stage. A submitted batch
 * classifies each job as a result-cache hit (answered synchronously),
 * an attach to an identical in-flight cell (the simulation is shared;
 * every attached submission gets the completion callback), or a fresh
 * enqueue — so each distinct cell simulates at most once, ever,
 * however many clients ask for it.
 *
 * Scheduling is deterministic for a fixed arrival sequence: ready
 * cells start in (priority desc, arrival seq asc) order on a
 * fixed-size worker pool that stays warm for the daemon's lifetime.
 * Attaching a higher-priority submission to a queued cell promotes it.
 * Determinism of *results* needs none of this — reports are pure
 * functions of the result cache — but a predictable start order is
 * what makes priorities testable and latency explainable.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "driver/thread_pool.hh"
#include "harness/runner.hh"

namespace gaze
{
namespace serve
{

struct SchedulerConfig
{
    /** Simulation workers (0 = hardware concurrency). */
    uint32_t threads = 0;

    /** Admission cap: queued + running cells across all clients. */
    uint64_t maxQueuedCells = 4096;
};

struct SchedulerStats
{
    uint64_t executed = 0;  ///< simulations run (and published)
    uint64_t cacheHits = 0; ///< jobs answered from the result cache
    uint64_t dedupHits = 0; ///< jobs attached to an in-flight cell
    uint64_t failed = 0;    ///< simulations that threw
};

class CellScheduler
{
  public:
    /**
     * Per-job completion callback, invoked on a worker thread with no
     * scheduler lock held, once per requested job that was not a
     * cache hit at submit time. @p ok false means the simulation
     * threw; @p error carries the message and @p rec is empty.
     */
    using CellDone = std::function<void(const CampaignJob &job,
                                        const CellRecord &rec, bool ok,
                                        const std::string &error)>;

    /**
     * Test seam: how one job is simulated. The default executor is
     * executeCampaignJob; the result is always published to the
     * result cache by the scheduler itself.
     */
    using Executor = std::function<CellRecord(const RunConfig &,
                                              const CampaignJob &)>;

    CellScheduler(ResultCache &cache, const SchedulerConfig &cfg,
                  Executor executor = {});
    ~CellScheduler();

    CellScheduler(const CellScheduler &) = delete;
    CellScheduler &operator=(const CellScheduler &) = delete;

    /** What submitBatch decided, per batch and per job. */
    struct BatchOutcome
    {
        bool accepted = false;
        std::string reason; ///< set when rejected

        uint64_t cacheHits = 0;
        uint64_t shared = 0;
        uint64_t enqueued = 0;

        /** Cache-hit jobs resolved synchronously at submit time:
            (index into the submitted batch, its record). */
        std::vector<std::pair<size_t, CellRecord>> cachedNow;
    };

    /**
     * Admit one submission's @p jobs all-or-nothing: if the fresh
     * cells would push queued+running past maxQueuedCells the whole
     * batch is rejected with a reason and nothing is enqueued.
     * @p onDone fires later for every non-cache-hit job.
     */
    BatchOutcome submitBatch(const RunConfig &run,
                             const std::vector<CampaignJob> &jobs,
                             int64_t priority, const CellDone &onDone);

    /** Block until no queued or running cells remain. */
    void drainAll();

    uint64_t inFlight() const; ///< queued + running cells
    uint32_t threads() const { return workerCount; }
    SchedulerStats stats() const;

    /** Cell labels in execution-start order (tests + diagnostics). */
    std::vector<std::string> executionLog() const;

  private:
    struct Task
    {
        uint64_t seq = 0;     ///< arrival order (admission time)
        int64_t priority = 0; ///< max over attached submissions
        RunConfig run;
        CampaignJob job;
        bool running = false;
        std::vector<CellDone> waiters;
        uint64_t enqueueUs = 0; ///< obs: host time when queued
    };

    void dispatchLocked();
    void runTask(std::shared_ptr<Task> task, uint64_t hash);

    ResultCache &cache;
    SchedulerConfig cfg;
    Executor exec;
    uint32_t workerCount;

    mutable std::mutex mtx;
    std::condition_variable idleCv;
    uint64_t nextSeq = 1;
    uint32_t runningCount = 0;
    std::map<uint64_t, std::shared_ptr<Task>> tasks; ///< by cell hash

    /** Ready order: (-priority, arrival seq, cell hash). */
    std::set<std::tuple<int64_t, uint64_t, uint64_t>> ready;

    SchedulerStats statsData;
    std::vector<std::string> execLog;

    /** Created last, destroyed first: workers must die before state. */
    std::unique_ptr<ThreadPool> pool;
};

} // namespace serve
} // namespace gaze
