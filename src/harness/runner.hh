/**
 * @file
 * Experiment runner: builds a System per (configuration, prefetcher,
 * workload/mix), executes warmup + measured phases, and memoizes the
 * no-prefetch baselines that speedup/coverage are computed against.
 * Every bench binary and every campaign job drives simulations
 * through this.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "sim/system.hh"
#include "workloads/suites.hh"

namespace gaze
{

namespace obs
{
class TraceSink;
}

/**
 * Observability attachments for a run. Deliberately NOT part of the
 * canonical cell text (harness/cell_key): obs never perturbs simulated
 * state — obs-on runs are bitwise identical to obs-off runs
 * (test_engine_diff proves it) — so cached campaign cells stay valid
 * whatever the obs settings are.
 */
struct ObsConfig
{
    /** Interval-sampler epoch in cycles; 0 disables the timeline. */
    uint64_t samplerInterval = 0;

    /** Trace sink for sim-time spans (not owned; null = no tracing). */
    obs::TraceSink *trace = nullptr;

    bool enabled() const { return samplerInterval != 0 || trace; }
};

/** One experiment's fixed context: system config + phase lengths. */
struct RunConfig
{
    SystemConfig system;

    /** Warmup instructions per core (0 = derive from scale). */
    uint64_t warmupInstr = 0;

    /** Measured instructions per core (0 = derive from scale). */
    uint64_t simInstr = 0;

    /** Observability hooks (excluded from the cell key; see above). */
    ObsConfig obs;

    uint64_t effectiveWarmup() const;
    uint64_t effectiveSim() const;
};

/** Prefetcher selection for one run. */
struct PfSpec
{
    std::string l1 = "none";
    std::string l2 = "none";

    bool isNone() const { return l1 == "none" && l2 == "none"; }

    std::string
    label() const
    {
        return l2 == "none" ? l1 : l1 + "+" + l2;
    }
};

/**
 * Build a PfSpec attaching factory spec @p spec at @p level, which
 * campaign spec validation has checked is "l1" or "l2".
 */
PfSpec pfSpecAt(const std::string &spec, const std::string &level);

/**
 * Runs workloads under one RunConfig, memoizing baselines per Runner.
 * Not thread safe: concurrent workers each use their own Runner.
 */
class Runner
{
  public:
    explicit Runner(const RunConfig &config) : cfg(config) {}

    /** Single-core run of @p w with @p pf. */
    RunResult run(const WorkloadDef &w, const PfSpec &pf);

    /** Multi-core run: one workload per core (homogeneous = N copies). */
    RunResult runMix(const std::vector<WorkloadDef> &mix,
                     const PfSpec &pf);

    /** Cached no-prefetch baseline for @p w. */
    RunResult baseline(const WorkloadDef &w);

    /** Cached no-prefetch baseline for a mix. */
    RunResult baselineMix(const std::vector<WorkloadDef> &mix);

    /** Convenience: run + baseline + metric math. */
    PrefetchMetrics evaluate(const WorkloadDef &w, const PfSpec &pf);

    /** Mix evaluation (speedup from mean IPC, as the paper plots). */
    PrefetchMetrics evaluateMix(const std::vector<WorkloadDef> &mix,
                                const PfSpec &pf);

    const RunConfig &config() const { return cfg; }

  private:
    RunResult execute(const std::vector<WorkloadDef> &mix,
                      const PfSpec &pf);

    RunConfig cfg;
    /** Baseline runs by canonical cell text (harness/cell_key). */
    std::map<std::string, RunResult> baselines;
};

/**
 * One prefetcher's aggregate over a group of workloads (a report
 * suite row, the bars of Figs. 6-8): geometric-mean speedup and the
 * mean accuracy, coverage and late fraction.
 */
struct SuiteSummary
{
    double speedup = 1.0;
    double accuracy = 0.0;
    double coverage = 0.0;
    double lateFraction = 0.0;
};

} // namespace gaze
