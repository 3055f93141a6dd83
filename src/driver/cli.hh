/**
 * @file
 * Flag parsing for the three CLIs (gaze_sim, gaze_trace and
 * gaze_campaign), factored out of the main()s so the error paths —
 * unknown flags, bad suite/workload/prefetcher names, malformed
 * --trace-dir or --shard, junk numbers — are unit-testable. Parsers
 * resolve names against the registries eagerly: anything wrong in
 * argv is fatal here, before a single cycle is simulated.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "workloads/suites.hh"

namespace gaze
{

/** Parsed gaze_sim command line. */
struct GazeSimOptions
{
    /**
     * The matrix as a campaign: --level and --cores are one-entry
     * axes; the phase lengths, the engine and the --obs-timeline
     * sampler interval live in spec.run.
     */
    CampaignSpec spec;
    uint32_t threads = 0;   ///< --threads; 0 = hardware concurrency
    bool verbose = true;    ///< per-job progress on stderr (--quiet)
    std::string outPath;    ///< --out; empty = default BENCH path
    std::string obsTimelinePath; ///< --obs-timeline CSV; empty = off
    std::string obsTracePath;    ///< --obs-trace JSON; empty = off
    bool showHelp = false;  ///< --help: print usage, run nothing
    bool showList = false;  ///< --list: print registries, run nothing

    /** --engine-stats: print per-cell simulation speed after the run. */
    bool engineStats = false;
};

/**
 * Parse gaze_sim flags (argv without the program name) into a
 * campaign spec, checked by the same axis validation as a spec file
 * (validateCampaignSpec: registry names, core-count bound, prefetcher
 * canonicalization, the --trace-dir probe). Expansion is left to
 * expandCampaign. Fatal on any malformed or unknown argument.
 */
GazeSimOptions parseGazeSimArgs(const std::vector<std::string> &args);

/** gaze_sim usage text. */
const char *gazeSimUsage();

/** Parsed gaze_trace command line. */
struct GazeTraceOptions
{
    enum class Command
    {
        Record,   ///< generate workloads and persist them as .gzt
        Info,     ///< print header/provenance of .gzt files
        Validate, ///< full decode + checksum verification
        Help
    };

    Command command = Command::Help;
    std::vector<WorkloadDef> workloads; ///< record: what to record
    std::string outDir = ".";           ///< record: --out-dir
    std::vector<std::string> files;     ///< info/validate operands
    bool jsonOutput = false;            ///< info: --json
};

/**
 * Parse gaze_trace arguments: "record [--suites=|--workloads=]
 * [--out-dir=]", "info FILE...", "validate FILE...". Fatal on unknown
 * commands/flags, unresolvable workload or suite names, or missing
 * operands.
 */
GazeTraceOptions parseGazeTraceArgs(const std::vector<std::string> &args);

/** gaze_trace usage text. */
const char *gazeTraceUsage();

/** Parsed gaze_campaign command line. */
struct GazeCampaignOptions
{
    enum class Command
    {
        Run,      ///< execute missing cells, then aggregate (unsharded)
        Report,   ///< aggregate from cache only
        Status,   ///< count cached vs missing cells
        Describe, ///< render the prefetcher registry (no --spec)
        Help
    };

    Command command = Command::Help;
    std::string specPath;                  ///< --spec (required)
    std::string cacheDir = "campaign_cache"; ///< --cache-dir
    uint32_t shardIndex = 0;               ///< --shard=i/n
    uint32_t shardCount = 1;
    uint32_t threads = 0;                  ///< --threads
    std::string outPath;                   ///< --out (report JSON)
    std::string csvPath;                   ///< --csv (suite CSV)
    std::string comparePath;               ///< --compare (old report)
    std::string obsTracePath;              ///< run: --obs-trace
    bool quiet = false;                    ///< --quiet
    bool jsonOutput = false;               ///< describe/status: --json
};

/**
 * Parse gaze_campaign arguments: "run|report|status --spec=FILE
 * [--cache-dir=] [--shard=i/n] [--threads=] [--out=] [--csv=]
 * [--compare=] [--quiet]" or "describe [--json]". Validates flag
 * syntax only — the spec file itself is loaded (and validated) by the
 * campaign library. Fatal on unknown commands/flags, a missing --spec
 * for the spec-driven commands, or a malformed --shard.
 */
GazeCampaignOptions
parseGazeCampaignArgs(const std::vector<std::string> &args);

/** gaze_campaign usage text. */
const char *gazeCampaignUsage();

/** Parsed gaze_serve command line. */
struct GazeServeOptions
{
    enum class Command
    {
        Daemon,   ///< run the campaign service on a Unix socket
        Submit,   ///< client: send a spec, stream events, write report
        Status,   ///< client: print the daemon's status JSON line
        Shutdown, ///< client: ask the daemon to drain and exit
        Help
    };

    Command command = Command::Help;
    std::string socketPath;   ///< --socket (all socket commands)
    std::string specPath;     ///< submit: --spec (required)
    std::string cacheDir;     ///< daemon: --cache-dir
                              ///< (default: campaign_cache)
    uint32_t threads = 0;     ///< daemon: --threads (0 = hw)
    uint64_t maxQueued = 4096;  ///< daemon: --max-queued cells
    uint64_t maxInFlight = 8; ///< daemon: --max-inflight per client
    std::string obsTracePath; ///< daemon: --obs-trace
    int64_t priority = 0;     ///< submit: --priority (may be negative)
    std::string outPath;      ///< submit: --out
    std::string csvPath;      ///< submit: --csv
    bool quiet = false;       ///< submit: --quiet
    bool verbose = false;     ///< daemon: --verbose
};

/**
 * Parse gaze_serve arguments: "daemon --socket=PATH [--cache-dir=]
 * [--threads=] [--max-queued=] [--max-inflight=] [--obs-trace=]
 * [--verbose]", "submit --socket=PATH --spec=FILE [--priority=]
 * [--out=] [--csv=] [--quiet]", or "status|shutdown --socket=PATH".
 * Fatal on unknown commands/flags, flags that don't apply to the
 * chosen command, or a missing required flag.
 */
GazeServeOptions parseGazeServeArgs(const std::vector<std::string> &args);

/** gaze_serve usage text. */
const char *gazeServeUsage();

/** Split "a,b,c" into tokens, dropping empties. */
std::vector<std::string> splitList(const std::string &s);

/**
 * Strict decimal parse for flag values: digits only, within
 * [0, @p max]. Fatal otherwise, naming @p flag.
 */
uint64_t parseCount(const std::string &flag, const std::string &value,
                    uint64_t max = UINT64_MAX);

} // namespace gaze
