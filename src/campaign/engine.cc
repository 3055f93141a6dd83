#include "campaign/engine.hh"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include "common/log.hh"
#include "driver/thread_pool.hh"
#include "harness/runner.hh"
#include "harness/wallclock.hh"
#include "obs/trace.hh"

namespace gaze
{

std::vector<CampaignJob>
expandCampaignJobs(const Campaign &campaign)
{
    // Workloads in first-appearance order, each with its baselines.
    std::vector<std::string> order;
    std::map<std::string, std::vector<const CampaignBaseline *>> baselines;
    for (const auto &b : campaign.baselines) {
        auto &of = baselines[b.workload.name];
        if (of.empty())
            order.push_back(b.workload.name);
        of.push_back(&b);
    }
    std::map<uint64_t, std::vector<const CampaignCell *>> cellsOf;
    for (const auto &cell : campaign.cells)
        cellsOf[cell.baselineHash].push_back(&cell);

    std::set<uint64_t> queued;
    std::vector<CampaignJob> jobs;
    jobs.reserve(campaign.baselines.size() + campaign.cells.size());
    for (const auto &name : order) {
        for (const CampaignBaseline *b : baselines[name]) {
            CampaignJob base;
            base.label = "baseline x " + b->workload.name + " ("
                         + std::to_string(b->cores) + "c)";
            base.key = b->key;
            base.hash = b->hash;
            base.cores = b->cores;
            base.isBaseline = true;
            base.workload = b->workload;
            queued.insert(b->hash);
            jobs.push_back(std::move(base));
            for (const CampaignCell *cell : cellsOf[b->hash]) {
                if (!queued.insert(cell->hash).second)
                    continue;
                CampaignJob job;
                job.label = cell->pf.label() + " x " + cell->workload.name
                            + " (" + std::to_string(cell->cores) + "c, "
                            + cell->level + ")";
                job.key = cell->key;
                job.hash = cell->hash;
                job.cores = cell->cores;
                job.workload = cell->workload;
                job.pf = cell->pf;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

CellRecord
executeCampaignJob(const RunConfig &run, const CampaignJob &job,
                   obs::SampleSeries *samples)
{
    obs::HostSpan cellSpan(obs::globalTrace(), "cell " + job.label);
    WallTimer cellTimer;
    Runner runner(run);
    std::vector<WorkloadDef> mix(job.cores, job.workload);
    RunResult r = runner.runMix(mix, job.pf);

    CellRecord rec;
    rec.key = job.key;
    rec.summary = summarize(r);
    rec.seconds = cellTimer.seconds();
    if (samples)
        *samples = std::move(r.obsSamples);
    return rec;
}

CampaignRunStats
runCampaign(const Campaign &campaign, ResultCache *cache,
            const CampaignRunOptions &opt)
{
    GAZE_ASSERT(opt.shardCount >= 1, "shard count must be >= 1");
    if (opt.shardIndex >= opt.shardCount)
        GAZE_FATAL("shard index ", opt.shardIndex,
                   " out of range (", opt.shardCount, " shards)");

    WallTimer campaignTimer;

    // Deterministic deduplicated job order (see expandCampaignJobs):
    // shards partition this sequence round-robin, so every process
    // derives the identical assignment from the spec alone.
    std::vector<CampaignJob> jobs = expandCampaignJobs(campaign);

    CampaignRunStats stats;
    std::vector<const CampaignJob *> toRun;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (uint64_t(i) % opt.shardCount != opt.shardIndex) {
            ++stats.otherShards;
            continue;
        }
        CellRecord cached;
        std::string why;
        if (cache && cache->lookup(jobs[i].hash, jobs[i].key, &cached,
                                   &why)) {
            ++stats.cacheHits;
            continue;
        }
        if (!why.empty())
            GAZE_WARN(why);
        toRun.push_back(&jobs[i]);
    }

    std::atomic<uint64_t> executed{0};
    std::mutex progressMtx;
    size_t announced = 0;
    auto progress = [&](const CampaignJob &job, double secs) {
        if (!opt.verbose)
            return;
        std::unique_lock<std::mutex> lock(progressMtx);
        ++announced;
        std::fprintf(stderr, "[%zu/%zu] %s (%.1fs)\n", announced,
                     toRun.size(), job.label.c_str(), secs);
    };

    stats.threadsUsed = resolvePoolThreads(opt.threads, toRun.size());
    if (!toRun.empty()) {
        // Host-time tracing (--obs-trace): one span for the whole
        // shard, one per cell job on its worker thread's track.
        obs::HostSpan shardSpan(obs::globalTrace(), "campaign shard");
        ThreadPool pool(stats.threadsUsed);
        for (const CampaignJob *job : toRun) {
            pool.submit([&, job] {
                obs::SampleSeries samples;
                CellRecord rec = executeCampaignJob(
                    campaign.spec.run, *job, &samples);
                if (cache)
                    cache->store(job->hash, rec);
                executed.fetch_add(1, std::memory_order_relaxed);
                progress(*job, rec.seconds);
                if (opt.onCell)
                    opt.onCell(*job, rec, samples);
            });
        }
        pool.wait();
    }
    stats.executed = executed.load();

    stats.seconds = campaignTimer.seconds();
    return stats;
}

} // namespace gaze
