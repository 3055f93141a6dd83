/**
 * @file
 * Campaign aggregation: merge the cached cells of a campaign into one
 * BENCH-style JSON document plus a per-suite CSV, computing the
 * paper's metrics (speedup/accuracy/coverage/late fraction, suite
 * geomeans) from cached RunSummaries only — never from in-memory run
 * state — so the report is a pure function of the cache content and
 * therefore bitwise identical across reruns, shard layouts, and
 * processes. No wall-clock or host data appears in the report.
 *
 * The metric math and the per-cell metric fields are shared with
 * gaze_sim, which scores the records a cache-less run hands back
 * (computeCampaignMetrics, writeCellMetrics), so the two documents
 * agree field for field.
 *
 * When a previous report is supplied (--compare), a "compare" section
 * is appended with per-suite speedup deltas against it.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/json.hh"
#include "campaign/spec.hh"
#include "harness/runner.hh"

namespace gaze
{

/** One (level, cores, prefetcher, suite) aggregate row. */
struct CampaignSuiteRow
{
    std::string prefetcher;
    std::string level;
    uint32_t cores = 1;
    std::string suite;
    uint32_t workloads = 0;
    SuiteSummary summary;
};

/** Finished job records of one campaign, keyed by cell hash. */
using CellRecords = std::map<uint64_t, CellRecord>;

/** The paper's metrics over a campaign's records. */
struct CampaignMetrics
{
    std::vector<PrefetchMetrics> cells;   ///< parallel to Campaign::cells
    std::vector<CampaignSuiteRow> suites; ///< level, cores, pf, suite order
};

/**
 * Score every cell of @p campaign against its baseline and aggregate
 * the suite rows (geomean speedup, mean accuracy/coverage/late
 * fraction, suites in first-appearance order). When the workload axis
 * spans more than one suite, each (level, cores, prefetcher) group
 * ends with one more row, suite "all", that applies the same
 * aggregate to every workload of the group. Every cell and baseline
 * must have a record in @p records.
 */
CampaignMetrics computeCampaignMetrics(const Campaign &campaign,
                                       const CellRecords &records);

class JsonWriter;

/**
 * Write one cell's metric fields into the JSON object the caller has
 * open: speedup, accuracy, coverage, late_fraction, ipc, base_ipc, the
 * pf_* and llc_miss_* counters, and the per-scheme "schemes" array.
 */
void writeCellMetrics(JsonWriter &j, const PrefetchMetrics &m,
                      double ipc, double baseIpc);

/** The rendered aggregate outputs. */
struct CampaignReport
{
    std::string json;                     ///< BENCH document text
    std::string csv;                      ///< per-suite CSV text
    std::vector<CampaignSuiteRow> suites; ///< for the stdout table
};

/**
 * Aggregate every cell of @p campaign from @p cache. Fatal when any
 * cell or baseline is missing (naming it and how many more are
 * absent) — an aggregate over a partial cache would silently lie.
 * @p previous is a parsed earlier report document, or nullptr.
 */
CampaignReport buildReport(const Campaign &campaign,
                           const ResultCache &cache,
                           const JsonValue *previous);

/**
 * The same report over @p records, which must hold every cell and
 * baseline of @p campaign by hash (the gaze_serve daemon collects them
 * as its jobs finish or hit the cache).
 */
CampaignReport buildReport(const Campaign &campaign,
                           const CellRecords &records,
                           const JsonValue *previous);

/**
 * Render the suite rows as an aligned text table for stdout, with
 * each row's modeled prefetcher storage (its storageBits(), in KB) as
 * the last column. The JSON and CSV reports carry no storage.
 */
std::string reportTable(const std::vector<CampaignSuiteRow> &rows);

/** Cache coverage of a campaign without simulating anything. */
struct CampaignCacheStatus
{
    uint64_t cached = 0;
    uint64_t missing = 0;
};

CampaignCacheStatus campaignStatus(const Campaign &campaign,
                                   const ResultCache &cache);

/**
 * Append the machine-readable status fields shared by `gaze_campaign
 * status --json` and the gaze_serve status event, inside an object the
 * caller has opened: campaign name, cell-record schema version, and
 * total/cached/missing job counts. One shape, two producers — scripts
 * parse either without caring which answered.
 */
void writeCampaignStatusFields(JsonWriter &j, const std::string &name,
                               const CampaignCacheStatus &status);

/** The complete one-line document for `gaze_campaign status --json`. */
std::string campaignStatusJson(const Campaign &campaign,
                               const ResultCache &cache);

} // namespace gaze
