#include "campaign/report.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/log.hh"
#include "harness/cell_key.hh"
#include "harness/export.hh"
#include "harness/table.hh"
#include "prefetchers/factory.hh"

namespace gaze
{
namespace
{

/** Fixed-precision CSV number (locale-independent). */
std::string
csvNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

/**
 * Round @p v through the JsonWriter's %.10g rendering. Values read
 * back from a previous report went through that rounding once, so
 * deltas are computed at matching precision — identical results give
 * an exact 0.0 delta, not rounding noise.
 */
double
jsonRounded(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::strtod(buf, nullptr);
}

/** Identity of one suite row for --compare matching. */
using RowKey = std::tuple<std::string, std::string, uint32_t,
                          std::string>; // pf, level, cores, suite

/**
 * Pull the per-suite speedups out of a previous report document.
 * Fatal when the document has no usable "suites" array — comparing
 * against a non-report file is a user error worth naming.
 */
std::map<RowKey, double>
previousSuiteSpeedups(const JsonValue &previous)
{
    if (!previous.isObject())
        GAZE_FATAL("--compare file is not a report document "
                   "(not a JSON object)");
    const JsonValue *suites = previous.find("suites");
    if (!suites || !suites->isArray())
        GAZE_FATAL("--compare file has no \"suites\" array (not a "
                   "gaze_campaign report?)");

    std::map<RowKey, double> out;
    for (const auto &row : suites->items()) {
        if (!row.isObject())
            continue;
        const JsonValue *pf = row.find("prefetcher");
        const JsonValue *level = row.find("level");
        const JsonValue *cores = row.find("cores");
        const JsonValue *suite = row.find("suite");
        const JsonValue *speedup = row.find("speedup");
        if (!pf || !pf->isString() || !suite || !suite->isString()
            || !speedup || !speedup->isNumber())
            continue;
        // Older gaze_sim documents carry no level/cores per row; let
        // them match single-level single-core campaigns. A cores
        // value outside [0, 2^32) is not something we ever wrote —
        // skip the row rather than cast out of range (UB).
        std::string level_s =
            level && level->isString() ? level->asString() : "l1";
        uint32_t cores_n = 1;
        if (cores) {
            if (!cores->isNumber())
                continue;
            double n = cores->asNumber();
            if (!(n >= 0) || n > 4294967295.0)
                continue;
            cores_n = static_cast<uint32_t>(n);
        }
        out[{pf->asString(), level_s, cores_n, suite->asString()}] =
            speedup->asNumber();
    }
    return out;
}

} // namespace

CampaignMetrics
computeCampaignMetrics(const Campaign &campaign,
                       const CellRecords &records)
{
    auto summary = [&](uint64_t hash) -> const RunSummary & {
        auto it = records.find(hash);
        GAZE_ASSERT(it != records.end(), "campaign job ",
                    cellHashHex(hash), " has no record");
        return it->second.summary;
    };

    CampaignMetrics out;
    out.cells.reserve(campaign.cells.size());
    for (const auto &cell : campaign.cells)
        out.cells.push_back(computeMetrics(summary(cell.baselineHash),
                                           summary(cell.hash)));

    // Suite order: first appearance across the workload axis. A
    // workload axis that spans several suites adds the "all" row last,
    // which matches every workload (no registry suite is named "all").
    std::vector<std::string> suiteOrder;
    for (const auto &w : campaign.workloads)
        if (std::find(suiteOrder.begin(), suiteOrder.end(), w.suite)
            == suiteOrder.end())
            suiteOrder.push_back(w.suite);
    if (suiteOrder.size() > 1)
        suiteOrder.push_back("all");

    // Cells are laid out level -> cores -> prefetcher -> workload, so
    // each (level, cores, prefetcher) group is a run of nw cells.
    const size_t nw = campaign.workloads.size();
    for (size_t group = 0; group < campaign.cells.size(); group += nw) {
        const CampaignCell &first = campaign.cells[group];
        for (const auto &suite : suiteOrder) {
            CampaignSuiteRow row;
            row.prefetcher = first.prefetcher;
            row.level = first.level;
            row.cores = first.cores;
            row.suite = suite;
            std::vector<double> speedups;
            double acc = 0.0, cov = 0.0, late = 0.0;
            for (size_t wi = 0; wi < nw; ++wi) {
                if (suite != "all"
                    && campaign.workloads[wi].suite != suite)
                    continue;
                const PrefetchMetrics &m = out.cells[group + wi];
                speedups.push_back(m.speedup);
                acc += m.accuracy;
                cov += m.coverage;
                late += m.lateFraction;
            }
            row.workloads = static_cast<uint32_t>(speedups.size());
            row.summary.speedup = geomean(speedups);
            row.summary.accuracy = acc / row.workloads;
            row.summary.coverage = cov / row.workloads;
            row.summary.lateFraction = late / row.workloads;
            out.suites.push_back(std::move(row));
        }
    }
    return out;
}

void
writeCellMetrics(JsonWriter &j, const PrefetchMetrics &m, double ipc,
                 double baseIpc)
{
    j.field("speedup", m.speedup);
    j.field("accuracy", m.accuracy);
    j.field("coverage", m.coverage);
    j.field("late_fraction", m.lateFraction);
    j.field("ipc", ipc);
    j.field("base_ipc", baseIpc);
    j.field("pf_issued", m.pfIssued);
    j.field("pf_filled", m.pfFilled);
    j.field("pf_useful", m.pfUseful);
    j.field("pf_late", m.pfLate);
    j.field("pf_late_load", m.pfLateLoad);
    j.field("pf_late_rfo", m.pfLateRfo);
    j.field("llc_miss_base", m.llcMissBase);
    j.field("llc_miss_pf", m.llcMissPf);
    // Per-scheme attribution (obs lifecycle tracking; empty for
    // baselines).
    j.key("schemes").beginArray();
    for (const SchemeMetrics &s : m.schemes) {
        j.beginObject();
        j.field("name", s.name);
        j.field("issued", s.issued);
        j.field("filled", s.filled);
        j.field("useful", s.useful);
        j.field("late", s.late);
        j.field("useless", s.useless);
        j.field("accuracy", s.accuracy);
        j.field("coverage", s.coverage);
        j.field("pollution", s.pollution);
        j.field("late_fraction", s.lateFraction);
        j.field("avg_fill_to_use", s.avgFillToUse);
        j.endObject();
    }
    j.endArray();
}

CampaignReport
buildReport(const Campaign &campaign, const ResultCache &cache,
            const JsonValue *previous)
{
    // Load every record first so a partial cache fails fast, naming
    // the first missing cell and the total shortfall.
    CellRecords records;
    uint64_t missing = 0;
    std::string first_missing;
    auto load = [&](uint64_t hash, const std::string &key) {
        if (records.count(hash))
            return true;
        CellRecord rec;
        if (!cache.lookup(hash, key, &rec))
            return false;
        records.emplace(hash, std::move(rec));
        return true;
    };
    for (const auto &b : campaign.baselines) {
        if (!load(b.hash, b.key)) {
            ++missing;
            if (first_missing.empty())
                first_missing = "baseline x " + b.workload.name;
        }
    }
    for (const auto &cell : campaign.cells) {
        if (!load(cell.hash, cell.key)) {
            ++missing;
            if (first_missing.empty())
                first_missing =
                    cell.pf.label() + " x " + cell.workload.name;
        }
    }
    if (missing)
        GAZE_FATAL("cannot aggregate: ", missing,
                   " cell(s) not in cache '", cache.directory(),
                   "' (first: ", first_missing,
                   ") — run the campaign (all shards) first");
    return buildReport(campaign, records, previous);
}

CampaignReport
buildReport(const Campaign &campaign, const CellRecords &records,
            const JsonValue *previous)
{
    CampaignMetrics scored = computeCampaignMetrics(campaign, records);
    CampaignReport report;
    report.suites = std::move(scored.suites);

    // ---- JSON document (pure function of the cache content) --------
    JsonWriter j;
    j.beginObject();
    j.field("campaign", campaign.spec.name);
    j.field("schema", uint64_t(kCellSchemaVersion));

    j.key("config").beginObject();
    j.field("scale", simScale());
    j.field("warmup_instructions", campaign.spec.run.effectiveWarmup());
    j.field("sim_instructions", campaign.spec.run.effectiveSim());
    if (campaign.spec.traceDir.empty())
        j.key("trace_dir").nullValue();
    else
        j.field("trace_dir", campaign.spec.traceDir);
    j.key("levels").beginArray();
    for (const auto &level : campaign.spec.levels)
        j.value(level);
    j.endArray();
    j.key("cores").beginArray();
    for (uint32_t c : campaign.spec.coreCounts)
        j.value(uint64_t(c));
    j.endArray();
    j.endObject();

    j.key("prefetchers").beginArray();
    for (const auto &p : campaign.spec.prefetchers)
        j.value(p);
    j.endArray();

    j.key("workloads").beginArray();
    for (const auto &w : campaign.workloads) {
        j.beginObject();
        j.field("name", w.name);
        j.field("suite", w.suite);
        j.field("identity", workloadIdentity(w));
        j.endObject();
    }
    j.endArray();

    j.key("cells").beginArray();
    for (size_t i = 0; i < campaign.cells.size(); ++i) {
        const CampaignCell &cell = campaign.cells[i];
        j.beginObject();
        j.field("prefetcher", cell.prefetcher);
        j.field("level", cell.level);
        j.field("cores", uint64_t(cell.cores));
        j.field("workload", cell.workload.name);
        j.field("suite", cell.workload.suite);
        writeCellMetrics(j, scored.cells[i],
                         records.at(cell.hash).summary.ipc,
                         records.at(cell.baselineHash).summary.ipc);
        j.field("cell", cellHashHex(cell.hash));
        j.field("baseline", cellHashHex(cell.baselineHash));
        j.endObject();
    }
    j.endArray();

    j.key("suites").beginArray();
    for (const auto &row : report.suites) {
        j.beginObject();
        j.field("prefetcher", row.prefetcher);
        j.field("level", row.level);
        j.field("cores", uint64_t(row.cores));
        j.field("suite", row.suite);
        j.field("workloads", uint64_t(row.workloads));
        j.field("speedup", row.summary.speedup);
        j.field("accuracy", row.summary.accuracy);
        j.field("coverage", row.summary.coverage);
        j.field("late_fraction", row.summary.lateFraction);
        j.endObject();
    }
    j.endArray();

    if (previous) {
        std::map<RowKey, double> before =
            previousSuiteSpeedups(*previous);
        uint64_t unmatched = 0;
        j.key("compare").beginObject();
        j.key("suites").beginArray();
        for (const auto &row : report.suites) {
            auto it = before.find({row.prefetcher, row.level,
                                   row.cores, row.suite});
            if (it == before.end()) {
                ++unmatched;
                continue;
            }
            j.beginObject();
            j.field("prefetcher", row.prefetcher);
            j.field("level", row.level);
            j.field("cores", uint64_t(row.cores));
            j.field("suite", row.suite);
            double after = jsonRounded(row.summary.speedup);
            j.field("speedup_before", it->second);
            j.field("speedup_after", after);
            j.field("speedup_delta", after - it->second);
            j.endObject();
        }
        j.endArray();
        j.field("rows_without_previous", unmatched);
        j.endObject();
    }

    j.endObject();
    report.json = j.str();

    // ---- per-suite CSV ----------------------------------------------
    CsvExport csv(campaign.spec.name);
    csv.header({"prefetcher", "level", "cores", "suite", "workloads",
                "speedup", "accuracy", "coverage", "late_fraction"});
    for (const auto &row : report.suites) {
        csv.row({row.prefetcher, row.level, std::to_string(row.cores),
                 row.suite, std::to_string(row.workloads),
                 csvNum(row.summary.speedup),
                 csvNum(row.summary.accuracy),
                 csvNum(row.summary.coverage),
                 csvNum(row.summary.lateFraction)});
    }
    report.csv = csv.toCsv();
    return report;
}

std::string
reportTable(const std::vector<CampaignSuiteRow> &rows)
{
    TextTable t({"prefetcher", "level", "cores", "suite", "workloads",
                 "speedup", "accuracy", "coverage", "late", "storage"});
    for (const auto &row : rows) {
        auto pf = makePrefetcher(row.prefetcher);
        double kib = pf ? double(pf->storageBits()) / 8 / 1024 : 0.0;
        t.addRow({row.prefetcher, row.level, std::to_string(row.cores),
                  row.suite, std::to_string(row.workloads),
                  TextTable::fmt(row.summary.speedup),
                  TextTable::pct(row.summary.accuracy),
                  TextTable::pct(row.summary.coverage),
                  TextTable::pct(row.summary.lateFraction),
                  TextTable::fmt(kib, 1) + "KB"});
    }
    return t.toString();
}

CampaignCacheStatus
campaignStatus(const Campaign &campaign, const ResultCache &cache)
{
    CampaignCacheStatus status;
    CellRecord rec;
    for (const auto &b : campaign.baselines) {
        if (cache.lookup(b.hash, b.key, &rec))
            ++status.cached;
        else
            ++status.missing;
    }
    for (const auto &cell : campaign.cells) {
        if (cache.lookup(cell.hash, cell.key, &rec))
            ++status.cached;
        else
            ++status.missing;
    }
    return status;
}

void
writeCampaignStatusFields(JsonWriter &j, const std::string &name,
                          const CampaignCacheStatus &status)
{
    j.key("campaign").value(name);
    j.key("schema").value(uint64_t(kCellSchemaVersion));
    j.key("total").value(status.cached + status.missing);
    j.key("cached").value(status.cached);
    j.key("missing").value(status.missing);
}

std::string
campaignStatusJson(const Campaign &campaign, const ResultCache &cache)
{
    CampaignCacheStatus status = campaignStatus(campaign, cache);
    JsonWriter j;
    j.beginObject();
    writeCampaignStatusFields(j, campaign.spec.name, status);
    j.key("cache_dir").value(cache.directory());
    j.endObject();
    return j.str();
}

} // namespace gaze
