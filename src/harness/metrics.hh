/**
 * @file
 * Metric definitions from §IV-A3:
 *
 *  - Speedup: IPC with prefetching / IPC without.
 *  - Overall accuracy: useful prefetched blocks at L1D and L2C over
 *    all prefetched blocks filled at those levels (na+ma over
 *    na+nb+ma+mb) — L2C-targeted prefetches count even though the L1D
 *    cannot see them.
 *  - LLC coverage: fraction of baseline LLC demand misses removed by
 *    prefetching.
 *  - Late fraction: demand hits on in-flight prefetch MSHRs over all
 *    useful prefetches (late ones included).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/sampler.hh"
#include "sim/cache.hh"
#include "sim/dram.hh"
#include "sim/system.hh"

namespace gaze
{

/**
 * Obs attribution: lifecycle counts of one prefetching scheme, summed
 * over L1D + L2 across cores — the same levels the aggregate pf
 * counters (and §IV-A3 accuracy) are summed over. The scheme label is
 * System::schemeNames() form: "<scheme>@l1" / "<scheme>@l2".
 */
struct SchemeCount
{
    std::string name;
    uint64_t issued = 0;
    uint64_t filled = 0;
    uint64_t useful = 0;
    uint64_t late = 0;
    uint64_t useless = 0;
    uint64_t fillToUseSum = 0;
    uint64_t fillToUseCnt = 0;
};

/** Aggregated outcome of one simulation run. */
struct RunResult
{
    std::vector<CoreResult> cores;

    CacheStats l1d;  ///< summed over cores
    CacheStats l2;   ///< summed over cores
    CacheStats llc;
    DramStats dram;

    /** Per-scheme lifecycle attribution (id order; empty w/o obs). */
    std::vector<SchemeCount> schemes;

    /** --obs-timeline samples (empty unless a sampler was attached). */
    obs::SampleSeries obsSamples;

    /** Simulation-speed counters (whole run: warmup + measured). */
    EngineStats engine;

    /** Wall-clock seconds the simulation took (warmup + measured). */
    double wallSeconds = 0.0;

    /** Instructions retired across cores, warmup/replay included. */
    uint64_t instructionsRetired = 0;

    /** Arithmetic-mean IPC across cores (per-core IPCs for mixes). */
    double ipc() const;

    /** Per-core IPC. */
    double coreIpc(uint32_t cpu) const { return cores[cpu].ipc(); }

    /** Simulation throughput in million instructions per second. */
    double
    minstrPerSec() const
    {
        return wallSeconds > 0.0
                   ? double(instructionsRetired) / wallSeconds / 1e6
                   : 0.0;
    }
};

/**
 * Derived per-scheme metrics (obs attribution): the accuracy /
 * coverage / timeliness / pollution breakdown of one issuing scheme.
 */
struct SchemeMetrics
{
    std::string name;
    uint64_t issued = 0;
    uint64_t filled = 0;
    uint64_t useful = 0;
    uint64_t late = 0;
    uint64_t useless = 0;

    /** (useful + late) / (filled + late), as the aggregate metric. */
    double accuracy = 0.0;
    /** useful / baseline LLC demand misses (capped at 1). */
    double coverage = 0.0;
    /** useless / filled: fills evicted untouched. */
    double pollution = 0.0;
    /** late / (useful + late): timeliness, lower is better. */
    double lateFraction = 0.0;
    /** Mean fill-to-first-demand-hit latency in cycles. */
    double avgFillToUse = 0.0;
};

/** Derived prefetching metrics for a (baseline, prefetch) run pair. */
struct PrefetchMetrics
{
    double speedup = 1.0;
    double accuracy = 0.0;
    double coverage = 0.0;
    double lateFraction = 0.0;

    uint64_t pfIssued = 0;
    uint64_t pfFilled = 0;
    uint64_t pfUseful = 0;
    uint64_t pfLate = 0;
    /** pfLate split by demand type (satellite of the late-miss stat). */
    uint64_t pfLateLoad = 0;
    uint64_t pfLateRfo = 0;
    uint64_t llcMissBase = 0;
    uint64_t llcMissPf = 0;

    /** Per-scheme breakdown, in scheme-id order (empty w/o obs). */
    std::vector<SchemeMetrics> schemes;
};

/**
 * The slice of a RunResult the metric math actually consumes — what
 * the campaign result cache persists per cell, so a cached cell and a
 * fresh run feed computeMetrics identically. Prefetch counters are
 * summed over L1D + L2, exactly as computeMetrics sums them.
 */
struct RunSummary
{
    double ipc = 0.0;
    uint64_t pfIssued = 0;
    uint64_t pfFilled = 0;
    uint64_t pfUseful = 0;
    uint64_t pfLate = 0;
    /** pfLate split by demand type (loadMissLate/rfoMissLate sums). */
    uint64_t pfLateLoad = 0;
    uint64_t pfLateRfo = 0;
    uint64_t llcDemandMiss = 0;

    /** Per-scheme lifecycle attribution (cell-record schema v4). */
    std::vector<SchemeCount> schemes;

    // Engine-speed slice. The cycle/event counters are deterministic
    // (the engine is bit-exact), so cached cells reproduce them;
    // minstrPerSec is informational wall-clock throughput and is kept
    // out of campaign report aggregation for that reason.
    uint64_t eventsDispatched = 0;
    uint64_t cyclesExecuted = 0;
    uint64_t cyclesSkipped = 0;
    double minstrPerSec = 0.0;

    // Whole-run instructions retired across cores, warmup included,
    // which gaze_sim's engine block sums (schema v5).
    uint64_t instructionsRetired = 0;
};

/** Reduce a full RunResult to the metric-relevant slice. */
RunSummary summarize(const RunResult &r);

/** Sum per-level stats out of a finished system. */
RunResult collectResult(System &sys, std::vector<CoreResult> cores);

/** Compute the §IV-A3 metrics from a baseline/prefetch pair. */
PrefetchMetrics computeMetrics(const RunSummary &base,
                               const RunSummary &with_pf);
PrefetchMetrics computeMetrics(const RunResult &base,
                               const RunResult &with_pf);

/** Geometric mean of speedups (suite aggregation). */
double geomean(const std::vector<double> &values);

} // namespace gaze
