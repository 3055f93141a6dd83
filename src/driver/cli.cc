#include "driver/cli.hh"

#include "common/decimal.hh"
#include "common/log.hh"

namespace gaze
{
namespace
{

const char *gazeSimUsageText =
    "usage: gaze_sim [options]\n"
    "\n"
    "Runs a prefetcher x workload matrix in parallel (one simulated\n"
    "System per cell plus one shared no-prefetch baseline per\n"
    "workload) and writes every cell's metrics as JSON. It is the\n"
    "campaign engine without a result cache: every run simulates\n"
    "every cell (gaze_campaign caches and shards).\n"
    "\n"
    "options:\n"
    "  --prefetchers=a,b,...  factory specs (default: ip_stride,gaze)\n"
    "  --suites=s1,s2,...     workload suites (default: the five\n"
    "                         main-evaluation suites)\n"
    "  --workloads=w1,w2,...  explicit workloads (overrides --suites)\n"
    "  --trace-dir=DIR        replay workloads from DIR/<name>.gzt\n"
    "                         (recorded by gaze_trace) instead of\n"
    "                         regenerating them\n"
    "  --level=l1|l2          prefetcher attach level (default: l1)\n"
    "  --cores=N              homogeneous cores per cell, 1..64\n"
    "                         (default: 1)\n"
    "  --threads=N            worker threads (default: hardware)\n"
    "  --engine=polled|auto (default: auto)\n"
    "                         simulation engine: polled ticks every\n"
    "                         cycle and is the reference loop; auto\n"
    "                         is the same loop, jumping the clock over\n"
    "                         cycles on which no component can act\n"
    "                         (metrics identical)\n"
    "  --engine-stats         print per-cell simulation speed\n"
    "                         (Minstr/s, skipped cycles, events, late\n"
    "                         prefetches) after the matrix; the JSON\n"
    "                         always carries them\n"
    "  --obs-timeline=FILE    write a per-interval counter CSV (one\n"
    "                         row per cell per epoch boundary; columns\n"
    "                         are the obs registry, name-sorted)\n"
    "  --obs-trace=FILE       write a Chrome-trace JSON (open in\n"
    "                         chrome://tracing or ui.perfetto.dev):\n"
    "                         run/simulate phases and per-core spans\n"
    "                         in simulated time, the campaign shard\n"
    "                         and each cell job in host time\n"
    "  --obs-interval=N       sampler epoch in cycles for\n"
    "                         --obs-timeline (default: 4096)\n"
    "  --warmup=N             warmup instructions per core\n"
    "  --sim=N                measured instructions per core\n"
    "  --name=ID              experiment id (default: gaze_sim)\n"
    "  --out=FILE             JSON output path (default:\n"
    "                         [$GAZE_RESULTS_DIR/]BENCH_<name>.json)\n"
    "  --quiet                no per-cell progress on stderr\n"
    "  --list                 print known prefetchers/suites/workloads\n"
    "  --help                 this text\n"
    "\n"
    "GAZE_SIM_SCALE scales default trace/phase lengths, as in the\n"
    "bench binaries.\n";

const char *gazeTraceUsageText =
    "usage: gaze_trace <command> [options]\n"
    "\n"
    "Records registry workloads as .gzt trace files and inspects\n"
    "them. A recorded trace replays bit-identically through\n"
    "gaze_sim --trace-dir=DIR.\n"
    "\n"
    "commands:\n"
    "  record    generate workloads and write DIR/<name>.gzt each\n"
    "    --workloads=w1,...   explicit workloads (overrides --suites)\n"
    "    --suites=s1,...      whole suites (default: the five\n"
    "                         main-evaluation suites)\n"
    "    --out-dir=DIR        destination directory (default: .)\n"
    "  info FILE...      print header, provenance and size stats\n"
    "    --json               machine-readable output: one JSON\n"
    "                         document with record count, checksum,\n"
    "                         per-op histogram and meta per file\n"
    "  validate FILE...  decode every record, verify count/checksum\n"
    "  --help            this text\n"
    "\n"
    "GAZE_SIM_SCALE scales generated trace lengths; the scale used at\n"
    "record time is stored in the file's meta string.\n";

const char *gazeCampaignUsageText =
    "usage: gaze_campaign <command> --spec=FILE [options]\n"
    "\n"
    "Runs declarative experiment campaigns with a content-addressed\n"
    "result cache: every (config, prefetcher, workload) cell and\n"
    "every shared no-prefetch baseline is simulated at most once,\n"
    "persisted to the cache directory, and aggregated into a\n"
    "BENCH_<name>.json / CSV report from the cache alone.\n"
    "\n"
    "commands:\n"
    "  run       execute the spec's missing cells, then (when not\n"
    "            sharded) aggregate and write the report\n"
    "  report    aggregate from the cache only (all cells must be\n"
    "            present; use after all shards finished)\n"
    "  status    print how many cells are cached vs missing (add\n"
    "            --json for one machine-readable line; exit 2 when\n"
    "            cells are missing either way)\n"
    "  describe  print every registered prefetcher scheme with its\n"
    "            typed options, defaults and docs, then the storage\n"
    "            tables (Table I: Gaze by structure; Table IV: every\n"
    "            evaluated scheme); --json prints the registry alone\n"
    "            as one machine-readable document; needs no --spec\n"
    "\n"
    "options:\n"
    "  --spec=FILE        campaign spec (JSON; see README)\n"
    "  --cache-dir=DIR    result cache (default: campaign_cache)\n"
    "  --shard=I/N        run only every N-th job, offset I (I < N);\n"
    "                     shards coordinate through the cache dir only\n"
    "  --threads=N        worker threads (default: hardware)\n"
    "  --out=FILE         report JSON path (default:\n"
    "                     [$GAZE_RESULTS_DIR/]BENCH_<name>.json)\n"
    "  --csv=FILE         also write the per-suite CSV here\n"
    "  --compare=FILE     previous report JSON; appends a \"compare\"\n"
    "                     section with per-suite speedup deltas\n"
    "  --obs-trace=FILE   run: write a Chrome-trace JSON of host-time\n"
    "                     spans (the shard and each cell job)\n"
    "  --quiet            no per-cell progress on stderr\n"
    "  --help             this text\n"
    "\n"
    "A killed run resumes cleanly: finished cells are published to\n"
    "the cache atomically and are skipped on the next run.\n";

const char *gazeServeUsageText =
    "usage: gaze_serve <command> [options]\n"
    "\n"
    "Long-running campaign service: a daemon that keeps the result\n"
    "cache and trace corpus warm and answers campaign submissions\n"
    "from many concurrent clients over a local Unix socket. Every\n"
    "cell is simulated at most once, ever — overlapping submissions\n"
    "share in-flight work, repeats are pure cache hits — and each\n"
    "workload's trace is generated once and stays resident (up to a\n"
    "64 MiB store) for later submissions. A daemon report is\n"
    "byte-identical to the offline gaze_campaign run for the same\n"
    "spec.\n"
    "\n"
    "commands:\n"
    "  daemon    serve submissions on --socket until SIGTERM/SIGINT,\n"
    "            then drain in-flight cells and exit 0\n"
    "  submit    send a campaign spec to a running daemon, stream\n"
    "            progress, write the report when it arrives\n"
    "  status    print the daemon's one-line status JSON on stdout\n"
    "  shutdown  ask the daemon to drain and exit\n"
    "\n"
    "daemon options:\n"
    "  --socket=PATH       Unix socket to listen on (required)\n"
    "  --cache-dir=DIR     result cache (default: campaign_cache)\n"
    "  --threads=N         sim workers (default: hardware)\n"
    "  --max-queued=N      admission: max distinct cells queued or\n"
    "                      running at once (default: 4096)\n"
    "  --max-inflight=N    admission: max unfinished submissions per\n"
    "                      client (default: 8)\n"
    "  --obs-trace=FILE    write a Chrome-trace JSON of queue-wait /\n"
    "                      execute spans on drain\n"
    "  --verbose           per-submission log lines on stderr\n"
    "\n"
    "submit options:\n"
    "  --socket=PATH       daemon socket (required)\n"
    "  --spec=FILE         campaign spec JSON (required)\n"
    "  --priority=N        scheduling priority, higher first; may be\n"
    "                      negative (default: 0)\n"
    "  --out=FILE          report path (default: BENCH_<name>.json)\n"
    "  --csv=FILE          also write the per-suite CSV here\n"
    "  --quiet             no progress events on stderr\n"
    "\n"
    "exit codes: 0 ok, 3 submission rejected (admission control or\n"
    "spec errors), 4 a cell failed, 5 connection/protocol trouble.\n";

/** Split "--key=value" (value empty when no '='). */
void
splitFlag(const std::string &arg, std::string *key, std::string *val)
{
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
        *key = arg;
        val->clear();
    } else {
        *key = arg.substr(0, eq);
        *val = arg.substr(eq + 1);
    }
}

void
requireNonEmptyLists(const std::vector<std::string> &workload_names,
                     bool workloads_given,
                     const std::vector<std::string> &suite_names,
                     bool suites_given, const char *cli)
{
    // An explicitly empty list is a mistake (often a script with an
    // unset variable), not a request for the default matrix.
    if (workloads_given && workload_names.empty())
        GAZE_FATAL(cli, ": --workloads needs at least one name");
    if (suites_given && suite_names.empty())
        GAZE_FATAL(cli, ": --suites needs at least one suite");
}

} // namespace

const char *
gazeSimUsage()
{
    return gazeSimUsageText;
}

const char *
gazeTraceUsage()
{
    return gazeTraceUsageText;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

uint64_t
parseCount(const std::string &flag, const std::string &v, uint64_t max)
{
    uint64_t n = 0;
    if (!parseDecimal(v, &n))
        GAZE_FATAL("bad numeric value for ", flag, ": '", v, "'");
    if (n > max)
        GAZE_FATAL(flag, " out of range: ", v, " (max ", max, ")");
    return n;
}

GazeSimOptions
parseGazeSimArgs(const std::vector<std::string> &args)
{
    GazeSimOptions opt;
    CampaignSpec &spec = opt.spec;
    spec.name = "gaze_sim";
    spec.prefetchers = {"ip_stride", "gaze"};

    uint64_t obsInterval = 4096;
    bool suitesGiven = false, workloadsGiven = false;

    for (const auto &arg : args) {
        std::string key, val;
        splitFlag(arg, &key, &val);

        if (key == "--help" || key == "-h") {
            opt.showHelp = true;
            return opt;
        } else if (key == "--list") {
            opt.showList = true;
            return opt;
        } else if (key == "--quiet") {
            opt.verbose = false;
        } else if (key == "--prefetchers") {
            spec.prefetchers = splitList(val);
        } else if (key == "--suites") {
            spec.suites = splitList(val);
            suitesGiven = true;
        } else if (key == "--workloads") {
            spec.workloadNames = splitList(val);
            workloadsGiven = true;
        } else if (key == "--trace-dir") {
            if (val.empty())
                GAZE_FATAL("--trace-dir needs a directory");
            spec.traceDir = val;
        } else if (key == "--level") {
            spec.levels = {val};
        } else if (key == "--cores") {
            spec.coreCounts = {
                static_cast<uint32_t>(parseCount(key, val, UINT32_MAX))};
        } else if (key == "--threads") {
            opt.threads =
                static_cast<uint32_t>(parseCount(key, val, 4096));
        } else if (key == "--engine") {
            spec.run.system.engine = parseEngineKind(val);
        } else if (key == "--engine-stats") {
            opt.engineStats = true;
        } else if (key == "--obs-timeline") {
            if (val.empty())
                GAZE_FATAL("--obs-timeline needs a file path");
            opt.obsTimelinePath = val;
        } else if (key == "--obs-trace") {
            if (val.empty())
                GAZE_FATAL("--obs-trace needs a file path");
            opt.obsTracePath = val;
        } else if (key == "--obs-interval") {
            obsInterval = parseCount(key, val);
            if (obsInterval == 0)
                GAZE_FATAL("--obs-interval must be >= 1");
        } else if (key == "--warmup") {
            spec.run.warmupInstr = parseCount(key, val);
        } else if (key == "--sim") {
            spec.run.simInstr = parseCount(key, val);
        } else if (key == "--name") {
            spec.name = val;
        } else if (key == "--out") {
            opt.outPath = val;
        } else {
            GAZE_FATAL("unknown option '", arg,
                       "' (see gaze_sim --help)");
        }
    }

    if (spec.prefetchers.empty())
        GAZE_FATAL("--prefetchers needs at least one spec");
    requireNonEmptyLists(spec.workloadNames, workloadsGiven,
                         spec.suites, suitesGiven, "gaze_sim");
    if (!opt.obsTimelinePath.empty())
        spec.run.obs.samplerInterval = obsInterval;
    validateCampaignSpec(spec, "gaze_sim");
    return opt;
}

GazeTraceOptions
parseGazeTraceArgs(const std::vector<std::string> &args)
{
    GazeTraceOptions opt;
    if (args.empty())
        return opt; // Help

    const std::string &cmd = args[0];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return opt;

    std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "record") {
        opt.command = GazeTraceOptions::Command::Record;
        std::vector<std::string> suites, workloadNames;
        bool suitesGiven = false, workloadsGiven = false;
        for (const auto &arg : rest) {
            std::string key, val;
            splitFlag(arg, &key, &val);
            if (key == "--workloads") {
                workloadNames = splitList(val);
                workloadsGiven = true;
            } else if (key == "--suites") {
                suites = splitList(val);
                suitesGiven = true;
            } else if (key == "--out-dir") {
                if (val.empty())
                    GAZE_FATAL("--out-dir needs a directory");
                opt.outDir = val;
            } else {
                GAZE_FATAL("unknown record option '", arg,
                           "' (see gaze_trace --help)");
            }
        }
        requireNonEmptyLists(workloadNames, workloadsGiven, suites,
                             suitesGiven, "gaze_trace");
        std::string error;
        if (!resolveWorkloads(workloadNames, suites, &opt.workloads,
                              &error))
            GAZE_FATAL(error);
        return opt;
    }

    if (cmd == "info" || cmd == "validate") {
        opt.command = cmd == "info" ? GazeTraceOptions::Command::Info
                                    : GazeTraceOptions::Command::Validate;
        for (const auto &arg : rest) {
            if (cmd == "info" && arg == "--json") {
                opt.jsonOutput = true;
                continue;
            }
            // Anything dash-prefixed is a flag typo, not a file name.
            if (!arg.empty() && arg[0] == '-')
                GAZE_FATAL("unknown ", cmd, " option '", arg,
                           "' (see gaze_trace --help)");
            opt.files.push_back(arg);
        }
        if (opt.files.empty())
            GAZE_FATAL("gaze_trace ", cmd,
                       " needs at least one .gzt file");
        return opt;
    }

    GAZE_FATAL("unknown gaze_trace command '", cmd,
               "' (want record, info or validate)");
}

const char *
gazeCampaignUsage()
{
    return gazeCampaignUsageText;
}

GazeCampaignOptions
parseGazeCampaignArgs(const std::vector<std::string> &args)
{
    GazeCampaignOptions opt;
    if (args.empty())
        return opt; // Help

    const std::string &cmd = args[0];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return opt;

    if (cmd == "run")
        opt.command = GazeCampaignOptions::Command::Run;
    else if (cmd == "report")
        opt.command = GazeCampaignOptions::Command::Report;
    else if (cmd == "status")
        opt.command = GazeCampaignOptions::Command::Status;
    else if (cmd == "describe")
        opt.command = GazeCampaignOptions::Command::Describe;
    else
        GAZE_FATAL("unknown gaze_campaign command '", cmd,
                   "' (want run, report, status or describe)");

    if (opt.command == GazeCampaignOptions::Command::Describe) {
        for (size_t i = 1; i < args.size(); ++i) {
            if (args[i] == "--json")
                opt.jsonOutput = true;
            else if (args[i] == "--help" || args[i] == "-h")
                opt.command = GazeCampaignOptions::Command::Help;
            else
                GAZE_FATAL("unknown describe option '", args[i],
                           "' (see gaze_campaign --help)");
        }
        return opt;
    }

    for (size_t i = 1; i < args.size(); ++i) {
        std::string key, val;
        splitFlag(args[i], &key, &val);
        if (key == "--help" || key == "-h") {
            opt.command = GazeCampaignOptions::Command::Help;
            return opt;
        } else if (key == "--spec") {
            if (val.empty())
                GAZE_FATAL("--spec needs a file path");
            opt.specPath = val;
        } else if (key == "--cache-dir") {
            if (val.empty())
                GAZE_FATAL("--cache-dir needs a directory");
            opt.cacheDir = val;
        } else if (key == "--shard") {
            size_t slash = val.find('/');
            if (slash == std::string::npos)
                GAZE_FATAL("--shard must look like I/N (e.g. 0/4), "
                           "got '", val, "'");
            opt.shardCount = static_cast<uint32_t>(
                parseCount("--shard count",
                           val.substr(slash + 1), 4096));
            if (opt.shardCount < 1)
                GAZE_FATAL("--shard needs at least one shard");
            opt.shardIndex = static_cast<uint32_t>(
                parseCount("--shard index", val.substr(0, slash),
                           UINT32_MAX));
            if (opt.shardIndex >= opt.shardCount)
                GAZE_FATAL("--shard index ", opt.shardIndex,
                           " out of range (", opt.shardCount,
                           " shards)");
        } else if (key == "--threads") {
            opt.threads =
                static_cast<uint32_t>(parseCount(key, val, 4096));
        } else if (key == "--out") {
            opt.outPath = val;
        } else if (key == "--csv") {
            opt.csvPath = val;
        } else if (key == "--compare") {
            if (val.empty())
                GAZE_FATAL("--compare needs a report file");
            opt.comparePath = val;
        } else if (key == "--obs-trace") {
            if (val.empty())
                GAZE_FATAL("--obs-trace needs a file path");
            opt.obsTracePath = val;
        } else if (key == "--quiet") {
            opt.quiet = true;
        } else if (key == "--json") {
            opt.jsonOutput = true;
        } else {
            GAZE_FATAL("unknown option '", args[i],
                       "' (see gaze_campaign --help)");
        }
    }

    if (opt.specPath.empty())
        GAZE_FATAL("gaze_campaign ", cmd, " needs --spec=FILE");
    if (opt.jsonOutput
        && opt.command != GazeCampaignOptions::Command::Status)
        GAZE_FATAL("--json only applies to gaze_campaign status "
                   "and describe");
    if (opt.shardCount > 1
        && opt.command != GazeCampaignOptions::Command::Run)
        GAZE_FATAL("--shard only applies to gaze_campaign run");
    if (!opt.obsTracePath.empty()
        && opt.command != GazeCampaignOptions::Command::Run)
        GAZE_FATAL("--obs-trace only applies to gaze_campaign run");
    return opt;
}

const char *
gazeServeUsage()
{
    return gazeServeUsageText;
}

GazeServeOptions
parseGazeServeArgs(const std::vector<std::string> &args)
{
    GazeServeOptions opt;
    if (args.empty())
        return opt; // Help

    const std::string &cmd = args[0];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return opt;

    if (cmd == "daemon")
        opt.command = GazeServeOptions::Command::Daemon;
    else if (cmd == "submit")
        opt.command = GazeServeOptions::Command::Submit;
    else if (cmd == "status")
        opt.command = GazeServeOptions::Command::Status;
    else if (cmd == "shutdown")
        opt.command = GazeServeOptions::Command::Shutdown;
    else
        GAZE_FATAL("unknown gaze_serve command '", cmd,
                   "' (want daemon, submit, status or shutdown)");

    bool daemon = opt.command == GazeServeOptions::Command::Daemon;
    bool submit = opt.command == GazeServeOptions::Command::Submit;

    auto only = [&](const char *flag, bool ok) {
        if (!ok)
            GAZE_FATAL(flag, " does not apply to gaze_serve ", cmd,
                       " (see gaze_serve --help)");
    };

    for (size_t i = 1; i < args.size(); ++i) {
        std::string key, val;
        splitFlag(args[i], &key, &val);
        if (key == "--help" || key == "-h") {
            opt.command = GazeServeOptions::Command::Help;
            return opt;
        } else if (key == "--socket") {
            if (val.empty())
                GAZE_FATAL("--socket needs a path");
            opt.socketPath = val;
        } else if (key == "--spec") {
            only("--spec", submit);
            if (val.empty())
                GAZE_FATAL("--spec needs a file path");
            opt.specPath = val;
        } else if (key == "--cache-dir") {
            only("--cache-dir", daemon);
            if (val.empty())
                GAZE_FATAL("--cache-dir needs a directory");
            opt.cacheDir = val;
        } else if (key == "--threads") {
            only("--threads", daemon);
            opt.threads =
                static_cast<uint32_t>(parseCount(key, val, 4096));
        } else if (key == "--max-queued") {
            only("--max-queued", daemon);
            opt.maxQueued = parseCount(key, val, 1u << 20);
            if (opt.maxQueued < 1)
                GAZE_FATAL("--max-queued needs at least one cell");
        } else if (key == "--max-inflight") {
            only("--max-inflight", daemon);
            opt.maxInFlight = parseCount(key, val, 1u << 20);
            if (opt.maxInFlight < 1)
                GAZE_FATAL("--max-inflight needs at least one "
                           "submission");
        } else if (key == "--obs-trace") {
            only("--obs-trace", daemon);
            if (val.empty())
                GAZE_FATAL("--obs-trace needs a file path");
            opt.obsTracePath = val;
        } else if (key == "--verbose") {
            only("--verbose", daemon);
            opt.verbose = true;
        } else if (key == "--priority") {
            only("--priority", submit);
            // Priorities order the daemon's ready queue both ways:
            // digits with an optional leading '-'. Range matches the
            // protocol's accepted window.
            bool neg = !val.empty() && val[0] == '-';
            uint64_t mag = parseCount(
                key, neg ? val.substr(1) : val, 1000000);
            opt.priority = neg ? -static_cast<int64_t>(mag)
                               : static_cast<int64_t>(mag);
        } else if (key == "--out") {
            only("--out", submit);
            opt.outPath = val;
        } else if (key == "--csv") {
            only("--csv", submit);
            opt.csvPath = val;
        } else if (key == "--quiet") {
            only("--quiet", submit);
            opt.quiet = true;
        } else {
            GAZE_FATAL("unknown option '", args[i],
                       "' (see gaze_serve --help)");
        }
    }

    if (opt.socketPath.empty())
        GAZE_FATAL("gaze_serve ", cmd, " needs --socket=PATH");
    if (submit && opt.specPath.empty())
        GAZE_FATAL("gaze_serve submit needs --spec=FILE");
    return opt;
}

} // namespace gaze
