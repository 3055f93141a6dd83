#include "campaign/spec.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>

#include "common/log.hh"
#include "harness/cell_key.hh"
#include "prefetchers/registry.hh"
#include "tracing/trace_io.hh"

namespace gaze
{
namespace
{

std::vector<std::string>
stringArray(const JsonValue &v, const char *what)
{
    if (!v.isArray())
        GAZE_FATAL("campaign spec: \"", what,
                   "\" must be an array of strings");
    std::vector<std::string> out;
    for (const auto &item : v.items()) {
        if (!item.isString())
            GAZE_FATAL("campaign spec: \"", what,
                       "\" must contain only strings");
        out.push_back(item.asString());
    }
    if (out.empty())
        GAZE_FATAL("campaign spec: \"", what, "\" must not be empty");
    return out;
}

/** Empty when a System can have @p n cores, else why not. */
std::string
coreCountProblem(uint64_t n)
{
    if (n < 1)
        return "core count must be >= 1";
    if (n > kMaxCores)
        return "core count " + std::to_string(n) + " exceeds the "
               + std::to_string(kMaxCores) + "-core limit";
    return "";
}

} // namespace

CampaignSpec
parseCampaignSpec(const JsonValue &root)
{
    if (!root.isObject())
        GAZE_FATAL("campaign spec: document must be a JSON object");

    CampaignSpec spec;
    for (const auto &member : root.members()) {
        const std::string &key = member.first;
        const JsonValue &v = member.second;
        if (key == "name") {
            if (!v.isString() || v.asString().empty())
                GAZE_FATAL("campaign spec: \"name\" must be a "
                           "non-empty string");
            spec.name = v.asString();
        } else if (key == "prefetchers") {
            spec.prefetchers = stringArray(v, "prefetchers");
        } else if (key == "suites") {
            spec.suites = stringArray(v, "suites");
        } else if (key == "workloads") {
            spec.workloadNames = stringArray(v, "workloads");
        } else if (key == "levels") {
            spec.levels = stringArray(v, "levels");
        } else if (key == "cores") {
            if (!v.isArray() || v.items().empty())
                GAZE_FATAL("campaign spec: \"cores\" must be a "
                           "non-empty array of core counts");
            spec.coreCounts.clear();
            for (const auto &item : v.items())
                spec.coreCounts.push_back(static_cast<uint32_t>(
                    item.asCount("campaign spec: cores entry",
                                 UINT32_MAX)));
        } else if (key == "warmup") {
            spec.run.warmupInstr =
                v.asCount("campaign spec: warmup");
        } else if (key == "sim") {
            spec.run.simInstr = v.asCount("campaign spec: sim");
        } else if (key == "trace_dir") {
            if (!v.isString() || v.asString().empty())
                GAZE_FATAL("campaign spec: \"trace_dir\" must be a "
                           "non-empty string");
            spec.traceDir = v.asString();
        } else {
            GAZE_FATAL("campaign spec: unknown key \"", key,
                       "\" (typo?)");
        }
    }

    validateCampaignSpec(spec, "campaign spec");
    return spec;
}

void
validateCampaignSpec(CampaignSpec &spec, const char *who)
{
    if (spec.name.empty())
        GAZE_FATAL(who, ": missing required \"name\"");
    if (spec.prefetchers.empty())
        GAZE_FATAL(who, ": missing required \"prefetchers\"");
    if (spec.levels.empty() || spec.coreCounts.empty())
        GAZE_FATAL(who, ": the level and core axes must not be empty");
    for (uint32_t n : spec.coreCounts) {
        std::string problem = coreCountProblem(n);
        if (!problem.empty())
            GAZE_FATAL(who, ": ", problem);
    }

    // Resolve every axis entry against its registry now, so a typo
    // dies with a clear message before any simulation or cache I/O —
    // including suites that "workloads" overrides and would otherwise
    // be silently ignored.
    //
    // The prefetcher axis is also canonicalized (aliases resolved,
    // options sorted, defaults elided): equivalent spellings collapse
    // to one axis entry, one set of cells and one cache address, and
    // the report labels are spelling-invariant. First spelling wins
    // the axis position.
    spec.prefetchers = canonicalizeSpecList(spec.prefetchers, who);
    for (const auto &level : spec.levels)
        pfSpecAt("none", level);
    for (const auto &w : spec.workloadNames)
        findWorkload(w);
    for (const auto &s : spec.suites)
        suiteWorkloads(s);
}

Campaign
expandCampaign(const CampaignSpec &spec)
{
    Campaign c;
    c.spec = spec;

    if (!spec.workloadNames.empty()) {
        for (const auto &n : spec.workloadNames)
            c.workloads.push_back(findWorkload(n));
    } else {
        std::vector<std::string> suites = spec.suites;
        if (suites.empty())
            suites = mainSuites();
        for (const auto &s : suites)
            for (const auto &w : suiteWorkloads(s))
                c.workloads.push_back(w);
    }
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

// ------------------------------------------- non-fatal preflight
//
// gaze_serve hands client-supplied documents to parseCampaignSpec +
// expandCampaign, which exit the process on any problem. These checks
// mirror that validation non-fatally and must stay at least as strict:
// a document that passes here must never reach a GAZE_FATAL in the
// parser or the expansion.

namespace
{

/** Mirror of registry.cc's strict Uint option parse, non-fatally. */
std::string
checkUintOption(const PrefetcherDescriptor &desc, const OptionSchema &os,
                const std::string &value)
{
    bool digitsOnly = !value.empty();
    for (char c : value)
        digitsOnly = digitsOnly && c >= '0' && c <= '9';
    errno = 0;
    char *end = nullptr;
    unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (!digitsOnly || (end && *end != '\0') || errno == ERANGE)
        return "prefetcher '" + std::string(desc.name) + "': option '"
               + os.name + "' wants an unsigned integer, got '" + value
               + "'";
    if (n < os.min || n > os.max)
        return "prefetcher '" + std::string(desc.name) + "': option '"
               + os.name + "' out of range: " + std::to_string(n)
               + " (want " + std::to_string(os.min) + ".."
               + std::to_string(os.max) + ")";
    if (os.pow2 && n != 0 && (n & (n - 1)) != 0)
        return "prefetcher '" + std::string(desc.name) + "': option '"
               + os.name + "' must be a power of two, got "
               + std::to_string(n);
    return "";
}

std::string
checkStringArray(const JsonValue &v, const char *what,
                 std::vector<std::string> *out)
{
    if (!v.isArray())
        return std::string("\"") + what
               + "\" must be an array of strings";
    for (const auto &item : v.items()) {
        if (!item.isString())
            return std::string("\"") + what
                   + "\" must contain only strings";
        out->push_back(item.asString());
    }
    if (out->empty())
        return std::string("\"") + what + "\" must not be empty";
    return "";
}

std::string
checkCount(const JsonValue &v, const char *what, uint64_t max)
{
    if (!v.isNumber())
        return std::string(what) + " must be a number";
    double d = v.asNumber();
    if (!(d >= 0) || d != std::floor(d) || d > 9.007199254740992e15)
        return std::string(what) + " must be a non-negative integer";
    if (static_cast<uint64_t>(d) > max)
        return std::string(what) + " out of range (max "
               + std::to_string(max) + ")";
    return "";
}

} // namespace

std::string
checkPrefetcherSpecText(const std::string &text)
{
    if (text.empty() || text == "none")
        return "";

    // Token walk identical to the registry's splitSpec: the scheme
    // name up to the first ':', then ':'-separated key[=value] tokens.
    size_t pos = text.find(':');
    std::string name = text.substr(0, pos);
    const PrefetcherDescriptor *desc =
        PrefetcherRegistry::instance().find(name);
    if (!desc)
        return "unknown prefetcher '" + name + "' in spec '" + text
               + "' (see gaze_sim --list-prefetchers)";

    std::set<std::string> seen;
    while (pos != std::string::npos) {
        size_t next = text.find(':', pos + 1);
        std::string tok =
            text.substr(pos + 1, next == std::string::npos
                                     ? std::string::npos
                                     : next - pos - 1);
        pos = next;
        size_t eq = tok.find('=');
        bool hasValue = eq != std::string::npos;
        std::string key = hasValue ? tok.substr(0, eq) : tok;
        std::string value = hasValue ? tok.substr(eq + 1) : "";

        const OptionSchema *os = desc->findOption(key);
        if (!os)
            return "prefetcher '" + std::string(desc->name)
                   + "': unknown option '" + key + "' in spec '" + text
                   + "'";
        if (!seen.insert(os->name).second)
            return "prefetcher '" + std::string(desc->name)
                   + "': option '" + os->name + "' given twice in spec '"
                   + text + "'";
        switch (os->type) {
          case OptionType::Flag: {
            if (hasValue)
                return "prefetcher '" + std::string(desc->name)
                       + "': option '" + os->name
                       + "' is a flag and takes no value";
            break;
          }
          case OptionType::Uint: {
            if (!hasValue)
                return "prefetcher '" + std::string(desc->name)
                       + "': option '" + os->name + "' needs =N";
            std::string err = checkUintOption(*desc, *os, value);
            if (!err.empty())
                return err;
            break;
          }
          case OptionType::Enum: {
            if (!hasValue)
                return "prefetcher '" + std::string(desc->name)
                       + "': option '" + os->name + "' needs =VALUE";
            if (std::find(os->enumValues.begin(), os->enumValues.end(),
                          value)
                == os->enumValues.end())
                return "prefetcher '" + std::string(desc->name)
                       + "': unknown value '" + value + "' for option '"
                       + os->name + "'";
            break;
          }
        }
    }
    return "";
}

std::string
checkCampaignSpecDoc(const JsonValue &root)
{
    if (!root.isObject())
        return "campaign spec: document must be a JSON object";

    std::string name;
    std::vector<std::string> prefetchers, suites, workloadNames, levels;
    std::string traceDir;
    for (const auto &member : root.members()) {
        const std::string &key = member.first;
        const JsonValue &v = member.second;
        std::string err;
        if (key == "name") {
            if (!v.isString() || v.asString().empty())
                return "campaign spec: \"name\" must be a non-empty "
                       "string";
            name = v.asString();
        } else if (key == "prefetchers") {
            err = checkStringArray(v, "prefetchers", &prefetchers);
        } else if (key == "suites") {
            err = checkStringArray(v, "suites", &suites);
        } else if (key == "workloads") {
            err = checkStringArray(v, "workloads", &workloadNames);
        } else if (key == "levels") {
            err = checkStringArray(v, "levels", &levels);
        } else if (key == "cores") {
            if (!v.isArray() || v.items().empty())
                return "campaign spec: \"cores\" must be a non-empty "
                       "array of core counts";
            for (const auto &item : v.items()) {
                err = checkCount(item, "cores entry", UINT32_MAX);
                if (err.empty())
                    err = coreCountProblem(
                        static_cast<uint64_t>(item.asNumber()));
                if (!err.empty())
                    return "campaign spec: " + err;
            }
        } else if (key == "warmup" || key == "sim") {
            err = checkCount(v, key.c_str(),
                             static_cast<uint64_t>(-1));
        } else if (key == "trace_dir") {
            if (!v.isString() || v.asString().empty())
                return "campaign spec: \"trace_dir\" must be a "
                       "non-empty string";
            traceDir = v.asString();
        } else {
            return "campaign spec: unknown key \"" + key + "\" (typo?)";
        }
        if (!err.empty())
            return "campaign spec: " + err;
    }
    if (name.empty())
        return "campaign spec: missing required \"name\"";
    if (prefetchers.empty())
        return "campaign spec: missing required \"prefetchers\"";

    for (const auto &pf : prefetchers) {
        std::string err = checkPrefetcherSpecText(pf);
        if (!err.empty())
            return "campaign spec: " + err;
    }
    for (const auto &level : levels)
        if (level != "l1" && level != "l2")
            return "campaign spec: unknown attach level '" + level
                   + "' (want l1 or l2)";

    // Resolve the workload axis exactly as expandCampaign will.
    std::set<std::string> knownWorkloads, knownSuites;
    for (const auto &w : allWorkloads()) {
        knownWorkloads.insert(w.name);
        knownSuites.insert(w.suite);
    }
    knownSuites.insert("qmm"); // matches qmm_server + qmm_client
    std::vector<std::string> resolved;
    if (!workloadNames.empty()) {
        for (const auto &w : workloadNames) {
            if (!knownWorkloads.count(w))
                return "campaign spec: unknown workload '" + w + "'";
            resolved.push_back(w);
        }
        for (const auto &s : suites)
            if (!knownSuites.count(s))
                return "campaign spec: unknown suite '" + s + "'";
    } else {
        std::vector<std::string> useSuites =
            suites.empty() ? mainSuites() : suites;
        for (const auto &s : useSuites) {
            if (!knownSuites.count(s))
                return "campaign spec: unknown suite '" + s + "'";
            for (const auto &w : suiteWorkloads(s))
                resolved.push_back(w.name);
        }
    }

    if (!traceDir.empty()) {
        std::string base = traceDir;
        if (base.back() != '/')
            base += '/';
        for (const auto &w : resolved) {
            std::string path = base + traceFileName(w);
            std::string err;
            if (!probeTraceFile(path, nullptr, &err))
                return "campaign spec: workload '" + w
                       + "' has no usable trace in '" + traceDir
                       + "': " + err;
        }
    }
    return "";
}

} // namespace gaze
