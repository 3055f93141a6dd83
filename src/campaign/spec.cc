#include "campaign/spec.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/log.hh"
#include "harness/cell_key.hh"
#include "prefetchers/registry.hh"
#include "tracing/trace_io.hh"

namespace gaze
{
namespace
{

bool
readStrings(const JsonValue &v, const char *what,
            std::vector<std::string> *out, std::string *error)
{
    if (!v.isArray())
        return failWith(error, "campaign spec: \"", what,
                        "\" must be an array of strings");
    out->clear();
    for (const auto &item : v.items()) {
        if (!item.isString())
            return failWith(error, "campaign spec: \"", what,
                            "\" must contain only strings");
        out->push_back(item.asString());
    }
    if (out->empty())
        return failWith(error, "campaign spec: \"", what,
                        "\" must not be empty");
    return true;
}

/** @p v as a non-negative integer <= @p max: spec fields like
    "warmup" must never silently truncate. */
bool
readCount(const JsonValue &v, const char *what, uint64_t max,
          uint64_t *out, std::string *error)
{
    if (!v.isNumber())
        return failWith(error, what, " must be a number");
    double d = v.asNumber();
    if (!(d >= 0) || d != std::floor(d) || d > 9.007199254740992e15)
        return failWith(error, what,
                        " must be a non-negative integer, got ", d);
    uint64_t n = static_cast<uint64_t>(d);
    if (n > max)
        return failWith(error, what, " out of range: ", n, " (max ", max,
                        ")");
    *out = n;
    return true;
}

/**
 * validateCampaignSpec's checks, non-fatally: the parser's second half
 * and gaze_sim's flag check. Diagnostics about the document as a whole
 * carry @p who; a registry's diagnostic is passed on as it is.
 */
bool
validateAxes(CampaignSpec &spec, const char *who, std::string *error)
{
    if (spec.name.empty())
        return failWith(error, who, ": missing required \"name\"");
    if (spec.prefetchers.empty())
        return failWith(error, who, ": missing required \"prefetchers\"");
    if (spec.levels.empty() || spec.coreCounts.empty())
        return failWith(error, who,
                        ": the level and core axes must not be empty");
    for (uint32_t n : spec.coreCounts) {
        if (n < 1)
            return failWith(error, who, ": core count must be >= 1");
        if (n > kMaxCores)
            return failWith(error, who, ": core count ", n,
                            " exceeds the ", kMaxCores, "-core limit");
    }

    // Resolve every axis entry against its registry now, so a typo is
    // a clear diagnostic before any simulation or cache I/O.
    //
    // The prefetcher axis is also canonicalized (aliases resolved,
    // options sorted, defaults elided): equivalent spellings collapse
    // to one axis entry, one set of cells and one cache address, and
    // the report labels are spelling-invariant. First spelling wins
    // the axis position.
    std::vector<std::string> canonical;
    for (const auto &text : spec.prefetchers) {
        CanonicalSpec canon;
        if (!resolvePrefetcherSpec(text, &canon, error))
            return false;
        if (std::find(canonical.begin(), canonical.end(), canon.text)
            != canonical.end()) {
            GAZE_WARN(who, ": prefetcher '", text,
                      "' duplicates canonical spec '", canon.text,
                      "'; keeping one");
            continue;
        }
        canonical.push_back(std::move(canon.text));
    }
    for (const auto &level : spec.levels)
        if (level != "l1" && level != "l2")
            return failWith(error, "unknown attach level '", level,
                            "' (want l1 or l2)");

    std::vector<WorkloadDef> workloads;
    if (!resolveWorkloads(spec.workloadNames, spec.suites, &workloads,
                          error))
        return false;
    // The only probe of trace_dir: expansion rebinds without opening.
    if (!spec.traceDir.empty()) {
        for (const auto &w :
             withTraceDir(std::move(workloads), spec.traceDir)) {
            std::string why;
            if (!probeTraceFile(w.traceFile, nullptr, &why))
                return failWith(
                    error, "workload '", w.name,
                    "' has no usable trace in '", spec.traceDir, "': ",
                    why, " (record one with: gaze_trace record --workloads=",
                    w.name, " --out-dir=", spec.traceDir, ")");
        }
    }
    spec.prefetchers = std::move(canonical);
    return true;
}

} // namespace

bool
parseCampaignSpec(const JsonValue &root, CampaignSpec *out,
                  std::string *error)
{
    if (!root.isObject())
        return failWith(error,
                        "campaign spec: document must be a JSON object");

    CampaignSpec spec;
    for (const auto &[key, v] : root.members()) {
        bool ok = true;
        if (key == "name") {
            if (!v.isString() || v.asString().empty())
                return failWith(error, "campaign spec: \"name\" must be "
                                       "a non-empty string");
            spec.name = v.asString();
        } else if (key == "prefetchers") {
            ok = readStrings(v, "prefetchers", &spec.prefetchers, error);
        } else if (key == "suites") {
            ok = readStrings(v, "suites", &spec.suites, error);
        } else if (key == "workloads") {
            ok = readStrings(v, "workloads", &spec.workloadNames, error);
        } else if (key == "levels") {
            ok = readStrings(v, "levels", &spec.levels, error);
        } else if (key == "cores") {
            if (!v.isArray() || v.items().empty())
                return failWith(error, "campaign spec: \"cores\" must be "
                                       "a non-empty array of core counts");
            spec.coreCounts.clear();
            for (const auto &item : v.items()) {
                uint64_t n = 0;
                if (!readCount(item, "campaign spec: cores entry",
                               UINT32_MAX, &n, error))
                    return false;
                spec.coreCounts.push_back(static_cast<uint32_t>(n));
            }
        } else if (key == "warmup") {
            ok = readCount(v, "campaign spec: warmup", UINT64_MAX,
                           &spec.run.warmupInstr, error);
        } else if (key == "sim") {
            ok = readCount(v, "campaign spec: sim", UINT64_MAX,
                           &spec.run.simInstr, error);
        } else if (key == "trace_dir") {
            if (!v.isString() || v.asString().empty())
                return failWith(error, "campaign spec: \"trace_dir\" must "
                                       "be a non-empty string");
            spec.traceDir = v.asString();
        } else {
            return failWith(error, "campaign spec: unknown key \"", key,
                            "\" (typo?)");
        }
        if (!ok)
            return false;
    }

    if (!validateAxes(spec, "campaign spec", error))
        return false;
    *out = std::move(spec);
    return true;
}

CampaignSpec
parseCampaignSpec(const JsonValue &root)
{
    CampaignSpec spec;
    std::string error;
    if (!parseCampaignSpec(root, &spec, &error))
        GAZE_FATAL(error);
    return spec;
}

void
validateCampaignSpec(CampaignSpec &spec, const char *who)
{
    std::string error;
    if (!validateAxes(spec, who, &error))
        GAZE_FATAL(error);
}

Campaign
expandCampaign(const CampaignSpec &spec)
{
    Campaign c;
    c.spec = spec;

    std::string error;
    if (!resolveWorkloads(spec.workloadNames, spec.suites, &c.workloads,
                          &error))
        GAZE_FATAL(error);
    if (!spec.traceDir.empty())
        c.workloads = withTraceDir(std::move(c.workloads),
                                   spec.traceDir);

    // Deterministic cell order: level, cores, prefetcher, workload.
    // The baseline of a cell depends only on (cores, workload), so the
    // level and prefetcher axes all share it; first appearance wins.
    std::set<uint64_t> baselineSeen;
    for (const auto &level : spec.levels) {
        for (uint32_t cores : spec.coreCounts) {
            for (const auto &pf_name : spec.prefetchers) {
                for (const auto &w : c.workloads) {
                    CampaignCell cell;
                    cell.prefetcher = pf_name;
                    cell.level = level;
                    cell.cores = cores;
                    cell.workload = w;
                    cell.pf = pfSpecAt(pf_name, level);

                    std::vector<WorkloadDef> mix(cores, w);
                    cell.key =
                        canonicalCellText(spec.run, cell.pf, mix);
                    cell.hash = cellHash(cell.key);

                    cell.baselineKey =
                        canonicalCellText(spec.run, PfSpec{}, mix);
                    cell.baselineHash = cellHash(cell.baselineKey);
                    if (baselineSeen.insert(cell.baselineHash).second) {
                        CampaignBaseline b;
                        b.cores = cores;
                        b.workload = w;
                        b.key = cell.baselineKey;
                        b.hash = cell.baselineHash;
                        c.baselines.push_back(std::move(b));
                    }
                    c.cells.push_back(std::move(cell));
                }
            }
        }
    }
    GAZE_ASSERT(!c.cells.empty(), "campaign expanded to zero cells");
    return c;
}

Campaign
loadCampaign(const std::string &path)
{
    return expandCampaign(parseCampaignSpec(parseJsonFile(path)));
}

} // namespace gaze
