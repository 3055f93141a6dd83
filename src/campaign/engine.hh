/**
 * @file
 * Campaign execution: take an expanded Campaign, skip every cell and
 * baseline whose result is already in the ResultCache, and run the
 * rest on the driver thread pool — optionally only this process's
 * shard of them (--shard=i/n assigns jobs round-robin over the
 * deterministic job order, so n processes partition the work with no
 * coordination beyond the shared cache directory). Without a cache
 * (gaze_sim) every job is simulated and the records reach the caller
 * only through the completion callback.
 *
 * Execution is resumable by construction: every finished simulation
 * is atomically published to the cache before the run counts it, so
 * killing a campaign at any point loses at most the in-flight cells,
 * and rerunning the same spec recomputes only what is missing.
 *
 * The building blocks are public: expandCampaignJobs() yields the
 * deterministic deduplicated job list and executeCampaignJob() runs a
 * single job, so callers that need incremental per-cell execution
 * (gaze_serve's scheduler) compose them directly instead of going
 * through run-to-completion runCampaign().
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/spec.hh"
#include "obs/sampler.hh"

namespace gaze
{

/** One executable unit of a campaign: a baseline or a prefetcher cell. */
struct CampaignJob
{
    std::string label; ///< progress text, e.g. "gaze x mcf (1c, l1)"
    std::string key;   ///< canonical cell text (cache identity)
    uint64_t hash = 0; ///< cellHash(key) — the cache address
    uint32_t cores = 1;
    bool isBaseline = false;
    WorkloadDef workload;
    PfSpec pf;
};

/**
 * The deterministic job order of @p campaign: workload by workload in
 * first-appearance order, each baseline followed by the cells scored
 * against it (in expansion order), each hash at most once (a spec that
 * lists the same workload or core count twice expands to duplicate
 * cells; running both would race on one cache file). Keeping a
 * workload's jobs together lets them share one generated trace while
 * it is resident in the trace store (workloads/trace_store.hh), however
 * wide the matrix. Shards and the serve scheduler both derive their
 * assignment from this sequence, so the dedup happens here, before any
 * partitioning.
 */
std::vector<CampaignJob> expandCampaignJobs(const Campaign &campaign);

/**
 * Simulate one job to completion and return its cell record (the
 * caller publishes it to a ResultCache). Emits the per-cell host-time
 * span on the calling thread's track. A non-null @p samples receives
 * the job's interval-sampler rows (empty unless @p run attaches a
 * sampler); they are never part of the record.
 */
CellRecord executeCampaignJob(const RunConfig &run,
                              const CampaignJob &job,
                              obs::SampleSeries *samples = nullptr);

/** Execution knobs for one campaign run. */
struct CampaignRunOptions
{
    /** Round-robin shard this process executes (index < count). */
    uint32_t shardIndex = 0;
    uint32_t shardCount = 1;

    /** Worker threads; 0 = hardware concurrency. */
    uint32_t threads = 0;

    /** Per-job progress lines on stderr. */
    bool verbose = true;

    /**
     * Completion callback, invoked on the worker thread after each
     * executed job, once its record is published to the cache when
     * there is one (cache hits and other shards' jobs do not call
     * back). The sample series holds
     * the job's interval-sampler rows when the spec's RunConfig
     * attaches a sampler, and is empty otherwise. Must be thread safe.
     */
    std::function<void(const CampaignJob &, const CellRecord &,
                       const obs::SampleSeries &)>
        onCell;
};

/** What one run did (the cache-hit accounting the tests assert on). */
struct CampaignRunStats
{
    uint64_t executed = 0;    ///< simulations actually run
    uint64_t cacheHits = 0;   ///< jobs served from the cache
    uint64_t otherShards = 0; ///< jobs left to sibling shards
    double seconds = 0.0;     ///< wall time of this run
    uint32_t threadsUsed = 0;

    uint64_t total() const { return executed + cacheHits + otherShards; }
};

/**
 * Execute the campaign's missing cells + baselines into @p cache.
 * A null @p cache means every job of this shard is simulated and
 * nothing is read from or written to disk. Fatal on invalid shard
 * options; I/O failures inside workers are fatal (a campaign with an
 * unwritable cache cannot make progress).
 */
CampaignRunStats runCampaign(const Campaign &campaign,
                             ResultCache *cache,
                             const CampaignRunOptions &opt);

} // namespace gaze
