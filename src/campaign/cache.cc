#include "campaign/cache.hh"

#include <atomic>
#include <filesystem>
#include <fstream>

#include "campaign/json.hh"
#include "common/log.hh"
#include "harness/cell_key.hh"
#include "harness/export.hh"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace gaze
{
namespace
{

/**
 * Read a non-negative integer member into @p out. False on a missing
 * or non-count value — like every other defect in a cell record,
 * that must read as a miss (recompute), never abort the campaign.
 */
bool
countField(const JsonValue &obj, const char *key, uint64_t *out)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        return false;
    double n = v->asNumber();
    // Reject above 2^53 before the cast: the cast itself is UB for
    // out-of-range doubles, and such values cannot round-trip anyway.
    if (!(n >= 0) || n > 9.007199254740992e15)
        return false;
    uint64_t u = static_cast<uint64_t>(n);
    if (double(u) != n)
        return false;
    *out = u;
    return true;
}

} // namespace

ResultCache::ResultCache(std::string dir_)
    : dir(std::move(dir_))
{
    GAZE_ASSERT(!dir.empty(), "result cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        GAZE_FATAL("cannot create cache directory '", dir,
                   "': ", ec.message());
}

std::string
ResultCache::path(uint64_t hash) const
{
    return dir + "/" + cellHashHex(hash) + ".json";
}

bool
ResultCache::lookup(uint64_t hash, const std::string &key,
                    CellRecord *out, std::string *why) const
{
    std::string file = path(hash);
    std::ifstream in(file, std::ios::binary);
    if (!in)
        return false; // plain miss: not yet computed

    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

    JsonValue doc;
    std::string error;
    if (!parseJson(text, &doc, &error) || !doc.isObject()) {
        if (why)
            *why = file + ": unparseable cell record ("
                   + (error.empty() ? "not an object" : error)
                   + "), recomputing";
        return false;
    }

    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isNumber()
        || schema->asNumber() != double(kCellSchemaVersion)) {
        if (why)
            *why = file + ": stale schema, recomputing";
        return false;
    }
    const JsonValue *stored_key = doc.find("key");
    if (!stored_key || !stored_key->isString()
        || stored_key->asString() != key) {
        if (why)
            *why = file + ": canonical-key mismatch (hash collision?), "
                   "recomputing";
        return false;
    }

    const JsonValue *ipc = doc.find("ipc");
    const JsonValue *seconds = doc.find("seconds");
    const JsonValue *minstr = doc.find("minstr_per_sec");
    RunSummary summary;
    if (!ipc || !ipc->isNumber() || !seconds || !seconds->isNumber()
        || !minstr || !minstr->isNumber()
        || !countField(doc, "pf_issued", &summary.pfIssued)
        || !countField(doc, "pf_filled", &summary.pfFilled)
        || !countField(doc, "pf_useful", &summary.pfUseful)
        || !countField(doc, "pf_late", &summary.pfLate)
        || !countField(doc, "pf_late_load", &summary.pfLateLoad)
        || !countField(doc, "pf_late_rfo", &summary.pfLateRfo)
        || !countField(doc, "llc_demand_miss", &summary.llcDemandMiss)
        || !countField(doc, "events_dispatched",
                       &summary.eventsDispatched)
        || !countField(doc, "cycles_executed", &summary.cyclesExecuted)
        || !countField(doc, "cycles_skipped", &summary.cyclesSkipped)
        || !countField(doc, "instructions_retired",
                       &summary.instructionsRetired)) {
        if (why)
            *why = file + ": malformed cell record, recomputing";
        return false;
    }

    // Per-scheme attribution (schema v4). An empty array is valid —
    // baselines have no schemes — but a missing or malformed member
    // is a defect, hence a miss.
    const JsonValue *schemes = doc.find("schemes");
    if (!schemes || !schemes->isArray()) {
        if (why)
            *why = file + ": malformed cell record, recomputing";
        return false;
    }
    for (const JsonValue &s : schemes->items()) {
        if (!s.isObject())
            break;
        const JsonValue *name = s.find("name");
        SchemeCount sc;
        if (!name || !name->isString()
            || !countField(s, "issued", &sc.issued)
            || !countField(s, "filled", &sc.filled)
            || !countField(s, "useful", &sc.useful)
            || !countField(s, "late", &sc.late)
            || !countField(s, "useless", &sc.useless)
            || !countField(s, "fill_to_use_sum", &sc.fillToUseSum)
            || !countField(s, "fill_to_use_cnt", &sc.fillToUseCnt))
            break;
        sc.name = name->asString();
        summary.schemes.push_back(std::move(sc));
    }
    if (summary.schemes.size() != schemes->items().size()) {
        if (why)
            *why = file + ": malformed scheme entry, recomputing";
        return false;
    }

    out->key = key;
    summary.ipc = ipc->asNumber();
    summary.minstrPerSec = minstr->asNumber();
    out->summary = summary;
    out->seconds = seconds->asNumber();
    return true;
}

void
ResultCache::store(uint64_t hash, const CellRecord &rec) const
{
    JsonWriter j;
    j.beginObject();
    j.field("schema", uint64_t(kCellSchemaVersion));
    j.field("key", rec.key);
    // Exact, so metrics computed from a cached record equal those of
    // the run that produced it (gaze_sim scores its records unrounded).
    j.key("ipc").exactValue(rec.summary.ipc);
    j.field("pf_issued", rec.summary.pfIssued);
    j.field("pf_filled", rec.summary.pfFilled);
    j.field("pf_useful", rec.summary.pfUseful);
    j.field("pf_late", rec.summary.pfLate);
    j.field("pf_late_load", rec.summary.pfLateLoad);
    j.field("pf_late_rfo", rec.summary.pfLateRfo);
    j.field("llc_demand_miss", rec.summary.llcDemandMiss);
    j.field("events_dispatched", rec.summary.eventsDispatched);
    j.field("cycles_executed", rec.summary.cyclesExecuted);
    j.field("cycles_skipped", rec.summary.cyclesSkipped);
    j.field("instructions_retired", rec.summary.instructionsRetired);
    j.field("minstr_per_sec", rec.summary.minstrPerSec);
    j.field("seconds", rec.seconds);
    j.key("schemes").beginArray();
    for (const SchemeCount &s : rec.summary.schemes) {
        j.beginObject();
        j.field("name", s.name);
        j.field("issued", s.issued);
        j.field("filled", s.filled);
        j.field("useful", s.useful);
        j.field("late", s.late);
        j.field("useless", s.useless);
        j.field("fill_to_use_sum", s.fillToUseSum);
        j.field("fill_to_use_cnt", s.fillToUseCnt);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::string text = j.str();
    text += '\n';

    // Atomic publish: concurrent writers — sibling shards (distinct
    // pids) or threads of one process (distinct counter values) —
    // each write their own temp file; the rename makes whole files
    // appear, never partial ones, and the last rename wins whole.
    static std::atomic<uint64_t> storeCounter{0};
    std::string final_path = path(hash);
    std::string tmp_path =
        // gaze-lint: allow(wall-clock): pid only suffixes the temp
        // file (cross-process uniqueness); renamed away, never part
        // of published bytes.
        final_path + ".tmp." + std::to_string(getpid()) + "."
        + std::to_string(storeCounter.fetch_add(1));
    {
        std::ofstream out_file(tmp_path,
                               std::ios::binary | std::ios::trunc);
        if (!out_file)
            GAZE_FATAL("cannot create cache file '", tmp_path, "'");
        out_file.write(text.data(),
                       static_cast<std::streamsize>(text.size()));
        out_file.close();
        if (!out_file)
            GAZE_FATAL("write failed on cache file '", tmp_path, "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec)
        GAZE_FATAL("cannot publish cache file '", final_path,
                   "': ", ec.message());
}

} // namespace gaze
