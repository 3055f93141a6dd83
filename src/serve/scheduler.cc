#include "serve/scheduler.hh"

#include "common/log.hh"
#include "obs/trace.hh"

namespace gaze
{
namespace serve
{

CellScheduler::CellScheduler(ResultCache &cache_,
                             const SchedulerConfig &cfg_,
                             Executor executor)
    : cache(cache_), cfg(cfg_), exec(std::move(executor)),
      // SIZE_MAX jobs: a daemon's pool is sized for the host, not for
      // any one batch — it stays warm across submissions.
      workerCount(resolvePoolThreads(cfg_.threads, SIZE_MAX))
{
    if (!exec)
        exec = [](const RunConfig &run, const CampaignJob &job) {
            return executeCampaignJob(run, job);
        };
    pool = std::make_unique<ThreadPool>(workerCount);
}

CellScheduler::~CellScheduler()
{
    drainAll();
    pool.reset();
}

CellScheduler::BatchOutcome
CellScheduler::submitBatch(const RunConfig &run,
                           const std::vector<CampaignJob> &jobs,
                           int64_t priority, const CellDone &onDone)
{
    enum class Source
    {
        Cache,
        Shared,
        Enqueued
    };

    BatchOutcome out;
    std::unique_lock<std::mutex> lock(mtx);

    // Classify without mutating first, so admission is all-or-nothing:
    // a rejected batch leaves no queued debris behind.
    std::vector<Source> source(jobs.size());
    std::vector<CellRecord> hit(jobs.size());
    uint64_t wouldEnqueue = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (tasks.count(jobs[i].hash)) {
            source[i] = Source::Shared;
            continue;
        }
        std::string why;
        if (cache.lookup(jobs[i].hash, jobs[i].key, &hit[i], &why)) {
            source[i] = Source::Cache;
            continue;
        }
        if (!why.empty())
            GAZE_WARN(why);
        source[i] = Source::Enqueued;
        ++wouldEnqueue;
    }
    if (tasks.size() + wouldEnqueue > cfg.maxQueuedCells) {
        out.reason = "queue full: " + std::to_string(wouldEnqueue)
                     + " new cell(s) would exceed the "
                     + std::to_string(cfg.maxQueuedCells)
                     + "-cell limit (" + std::to_string(tasks.size())
                     + " in flight); retry later or shrink the spec";
        return out;
    }

    out.accepted = true;
    obs::TraceSink *sink = obs::globalTrace();
    for (size_t i = 0; i < jobs.size(); ++i) {
        switch (source[i]) {
          case Source::Cache: {
            ++out.cacheHits;
            ++statsData.cacheHits;
            out.cachedNow.emplace_back(i, std::move(hit[i]));
            break;
          }
          case Source::Shared: {
            ++out.shared;
            ++statsData.dedupHits;
            auto &t = tasks.at(jobs[i].hash);
            t->waiters.push_back(onDone);
            // A later, more urgent submission promotes the shared
            // cell (only the queued copy can still be reordered).
            if (priority > t->priority) {
                if (!t->running) {
                    ready.erase({-t->priority, t->seq, jobs[i].hash});
                    ready.insert({-priority, t->seq, jobs[i].hash});
                }
                t->priority = priority;
            }
            break;
          }
          case Source::Enqueued: {
            ++out.enqueued;
            auto t = std::make_shared<Task>();
            t->seq = nextSeq++;
            t->priority = priority;
            t->run = run;
            t->job = jobs[i];
            t->waiters.push_back(onDone);
            if (sink)
                t->enqueueUs = sink->hostNowUs();
            ready.insert({-priority, t->seq, jobs[i].hash});
            tasks.emplace(jobs[i].hash, std::move(t));
            break;
          }
        }
    }
    dispatchLocked();
    return out;
}

void
CellScheduler::dispatchLocked()
{
    // Keep exactly workerCount cells in the pool: handing the pool
    // more would freeze their relative order before a higher-priority
    // submission had a chance to overtake.
    while (runningCount < workerCount && !ready.empty()) {
        auto it = ready.begin();
        uint64_t hash = std::get<2>(*it);
        ready.erase(it);
        std::shared_ptr<Task> t = tasks.at(hash);
        t->running = true;
        ++runningCount;
        execLog.push_back(t->job.label);
        pool->submit([this, t, hash] { runTask(t, hash); });
    }
}

void
CellScheduler::runTask(std::shared_ptr<Task> t, uint64_t hash)
{
    obs::TraceSink *sink = obs::globalTrace();
    uint64_t startUs = sink ? sink->hostNowUs() : 0;

    CellRecord rec;
    bool ok = true;
    std::string error;
    try {
        rec = exec(t->run, t->job);
        rec.key = t->job.key;
        cache.store(hash, rec);
    } catch (const std::exception &e) {
        ok = false;
        error = e.what();
    } catch (...) {
        ok = false;
        error = "unknown execution error";
    }

    if (sink) {
        // Queue-wait + execute, sequential on a per-cell track: spans
        // of one cell never overlap however workers interleave, so
        // validate_obs.py's nesting contract holds by construction.
        uint32_t track =
            sink->allocTrack(obs::kPidHost, "serve " + t->job.label);
        if (startUs >= t->enqueueUs)
            sink->span(obs::kPidHost, track, "queued", t->enqueueUs,
                       startUs - t->enqueueUs);
        uint64_t endUs = sink->hostNowUs();
        sink->span(obs::kPidHost, track, "execute", startUs,
                   endUs >= startUs ? endUs - startUs : 0);
    }

    std::vector<CellDone> waiters;
    {
        std::unique_lock<std::mutex> lock(mtx);
        // Waiters that attached while we simulated are all here: a
        // task leaves `tasks` only now, and later submissions find
        // the published record in the result cache instead.
        waiters = std::move(t->waiters);
        tasks.erase(hash);
        --runningCount;
        if (ok)
            ++statsData.executed;
        else
            ++statsData.failed;
        dispatchLocked();
        if (tasks.empty())
            idleCv.notify_all();
    }
    for (const auto &w : waiters)
        if (w)
            w(t->job, rec, ok, error);
}

void
CellScheduler::drainAll()
{
    std::unique_lock<std::mutex> lock(mtx);
    idleCv.wait(lock, [this] { return tasks.empty(); });
}

uint64_t
CellScheduler::inFlight() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return tasks.size();
}

SchedulerStats
CellScheduler::stats() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return statsData;
}

std::vector<std::string>
CellScheduler::executionLog() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return execLog;
}

} // namespace serve
} // namespace gaze
