/**
 * @file
 * Declarative experiment campaigns: a JSON spec file names the
 * prefetcher axis, the workload axis (explicit names or whole
 * suites), the attach levels and core counts to sweep, and the phase
 * lengths; expansion turns it into a deterministic list of cells —
 * one (config, prefetcher, workload) simulation each — plus the
 * deduplicated no-prefetch baseline jobs those cells are scored
 * against. Every cell carries its canonical text and FNV-1a hash
 * (harness/cell_key), which is the address of its cached result.
 *
 * Spec format (all axes validated against the driver registries,
 * unknown keys fatal; the prefetcher axis is canonicalized by the
 * prefetcher registry on load, so equivalent spellings collapse to
 * one axis entry and the cells/report labels are spelling-invariant):
 *
 *   {
 *     "name": "fig06_main",            // required, experiment id
 *     "prefetchers": ["gaze", ...],    // required, factory specs
 *     "suites": ["spec06", ...],       // default: the five main suites
 *     "workloads": ["mcf", ...],       // overrides "suites"
 *     "levels": ["l1"],                // default ["l1"]; "l1"/"l2"
 *     "cores": [1, 4],                 // default [1]; 1..kMaxCores
 *     "warmup": 200000,                // optional; 0 = scale default
 *     "sim": 400000,                   // optional; 0 = scale default
 *     "trace_dir": "traces"            // optional .gzt replay dir
 *   }
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "harness/runner.hh"
#include "workloads/suites.hh"

namespace gaze
{

/** The parsed, validated campaign spec file. */
struct CampaignSpec
{
    std::string name;
    std::vector<std::string> prefetchers;
    std::vector<std::string> suites;        ///< used when workloadNames empty
    std::vector<std::string> workloadNames; ///< explicit workload axis
    std::vector<std::string> levels = {"l1"};
    std::vector<uint32_t> coreCounts = {1};
    RunConfig run;
    std::string traceDir;
};

/** One expanded simulation cell (with a prefetcher attached). */
struct CampaignCell
{
    std::string prefetcher;
    std::string level;
    uint32_t cores = 1;
    WorkloadDef workload;
    PfSpec pf;

    std::string key; ///< canonical cell text
    uint64_t hash = 0;

    /** The no-prefetch baseline cell this one is scored against. */
    std::string baselineKey;
    uint64_t baselineHash = 0;
};

/** One deduplicated no-prefetch baseline job. */
struct CampaignBaseline
{
    uint32_t cores = 1;
    WorkloadDef workload;
    std::string key;
    uint64_t hash = 0;
};

/** A fully expanded campaign: what the engine executes and caches. */
struct Campaign
{
    CampaignSpec spec;
    std::vector<WorkloadDef> workloads; ///< the resolved workload axis
    std::vector<CampaignCell> cells;    ///< level, cores, pf, workload order
    std::vector<CampaignBaseline> baselines; ///< first-appearance order
};

/**
 * Validate a parsed spec document against the registries. Fatal on
 * missing/unknown keys, unknown prefetchers/suites/workloads/levels,
 * or malformed values — a campaign must never silently drop an axis.
 */
CampaignSpec parseCampaignSpec(const JsonValue &root);

/**
 * The axis validation every front end that builds a CampaignSpec
 * runs (parseCampaignSpec, gaze_sim's flag parser). Fatal on a missing
 * name or prefetcher axis, an empty level or core axis, a core count
 * outside 1..kMaxCores, or a prefetcher, level, suite or workload the
 * registries do not know; canonicalizes the prefetcher axis in place.
 * @p who prefixes the diagnostics ("campaign spec", "gaze_sim").
 */
void validateCampaignSpec(CampaignSpec &spec, const char *who);

/**
 * Non-fatal preflight of @p root: empty string when parseCampaignSpec
 * would accept it, else the first problem found, phrased for a client.
 * Long-running services (gaze_serve) must call this before handing a
 * client-supplied document to the fatal parser — it is kept at least
 * as strict as parseCampaignSpec + expansion for every axis, so a
 * document that passes here cannot kill the daemon.
 */
std::string checkCampaignSpecDoc(const JsonValue &root);

/**
 * Non-fatal validation of one prefetcher factory spec string against
 * the registry (scheme known, options declared, values typed/ranged).
 * Empty string when canonicalPrefetcherSpec would accept it.
 */
std::string checkPrefetcherSpecText(const std::string &text);

/**
 * Expand the axes into cells and deduplicated baselines, resolving
 * trace_dir replay and computing every cache key. Deterministic: the
 * same spec (and scale) always yields the same cells in the same
 * order, which sharded execution relies on.
 */
Campaign expandCampaign(const CampaignSpec &spec);

/** Load + parse + expand a spec file (fatal on any problem). */
Campaign loadCampaign(const std::string &path);

} // namespace gaze
