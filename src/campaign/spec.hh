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
 * unknown keys rejected; the prefetcher axis is canonicalized by the
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
 * The one campaign spec parser. Reads @p root and validates it
 * against the registries: missing or unknown keys, malformed values,
 * unknown prefetchers, levels, suites or workloads, and core counts
 * outside 1..kMaxCores are rejected (a campaign must never silently
 * drop an axis), and with "trace_dir" every workload's .gzt header is
 * probed (expansion only rebinds). Canonicalizes the prefetcher axis.
 * Returns false with the first problem in @p error; gaze_serve rejects
 * a submission with that message, so a client reads the words the
 * offline tools exit with.
 */
bool parseCampaignSpec(const JsonValue &root, CampaignSpec *out,
                       std::string *error);

/** parseCampaignSpec, fatal (exit 1) with its diagnostic. */
CampaignSpec parseCampaignSpec(const JsonValue &root);

/**
 * The axis checks of parseCampaignSpec, for a spec gaze_sim built
 * from its flags; fatal (exit 1) with the same diagnostics.
 * Canonicalizes the prefetcher axis in place. @p who prefixes the
 * diagnostics about the spec as a whole ("campaign spec", "gaze_sim").
 */
void validateCampaignSpec(CampaignSpec &spec, const char *who);

/**
 * Expand the axes into cells and deduplicated baselines, rebinding
 * trace_dir replay and computing every cache key. Deterministic: the
 * same spec (and scale) always yields the same cells in the same
 * order, which sharded execution relies on.
 */
Campaign expandCampaign(const CampaignSpec &spec);

/** Load + parse + expand a spec file (fatal on any problem). */
Campaign loadCampaign(const std::string &path);

} // namespace gaze
