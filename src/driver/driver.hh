/**
 * @file
 * gaze_sim's run and presentation. A gaze_sim matrix is a campaign
 * (driver/cli builds the CampaignSpec from the flags) that the campaign
 * engine executes with no result cache, so every invocation simulates
 * every job; the per-cell metrics and suite rows come from the same
 * function over the same records as a gaze_campaign report. What stays
 * here is what gaze_sim shows of the run: its BENCH_<name>.json
 * document, its stdout tables and its --obs-timeline CSV.
 *
 * The library half lives here so tests can run tiny matrices
 * in-process; main.cc only parses flags and prints.
 */

#pragma once

#include <cstdint>
#include <string>

#include "campaign/engine.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"

namespace gaze
{

struct GazeSimOptions;

/** A finished gaze_sim matrix. */
struct GazeSimRun
{
    Campaign campaign;
    CellRecords records;     ///< every job's record, by cell hash
    CampaignMetrics metrics; ///< per cell and per suite
    CampaignRunStats stats;  ///< wall time and pool size of the run

    // Whole-matrix engine totals over every job's record, baselines
    // included. The aggregate throughput (totalInstructions over the
    // run's wall time) reflects thread-pool parallelism, unlike the
    // per-cell numbers.
    uint64_t totalInstructions = 0;
    uint64_t totalEvents = 0;
    uint64_t totalCyclesExecuted = 0;
    uint64_t totalCyclesSkipped = 0;

    /** Matrix-level Minstr/s (all simulated instructions over wall). */
    double
    minstrPerSec() const
    {
        return stats.seconds > 0.0
                   ? double(totalInstructions) / stats.seconds / 1e6
                   : 0.0;
    }
};

/**
 * Execute @p campaign (expanded from @p opt.spec) through runCampaign
 * with no cache, on @p opt.threads workers, and score it. Writes the
 * --obs-timeline CSV and the --obs-trace document when @p opt names
 * them; the sampler rows stay in memory and never enter a record.
 */
GazeSimRun runGazeSim(Campaign campaign, const GazeSimOptions &opt);

/** Render the run as the BENCH_*.json document text. */
std::string gazeSimJson(const GazeSimRun &run);

/** Render the per-suite summary as an aligned text table for stdout. */
std::string gazeSimSuiteTable(const GazeSimRun &run);

/**
 * Render per-cell simulation-speed stats (Minstr/s, skipped-cycle
 * fraction, events, late prefetches) plus the matrix aggregate:
 * gaze_sim --engine-stats output.
 */
std::string gazeSimEngineTable(const GazeSimRun &run);

/**
 * Render the per-scheme lifecycle breakdown (obs attribution): one
 * row per (prefetcher, workload, scheme) with accuracy / pollution /
 * timeliness. Empty string when no cell carries scheme data, so
 * callers can print it unconditionally.
 */
std::string gazeSimSchemeTable(const GazeSimRun &run);

} // namespace gaze
