/**
 * @file
 * Campaign subsystem tests: the JSON reader's happy/error paths, spec
 * parsing (a table of bad specs, each diagnosed in the same words by
 * the parser, its fatal wrapper and an in-process gaze_serve) +
 * deterministic expansion, canonical cell keys, the
 * content-addressed cache (round trip, collision guard, malformed
 * files), RunSummary equivalence with full-RunResult metric math, and
 * an in-process end-to-end: a tiny campaign run twice must serve the
 * second run entirely from cache with a byte-identical report, and
 * two complementary shards must aggregate to the unsharded result;
 * and the suite rows, including the "all" row a multi-suite workload
 * axis adds to every group and the storage column of the stdout
 * table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/cell_key.hh"
#include "harness/metrics.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "test_util.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ---- JSON reader ----------------------------------------------------

TEST(CampaignJson, ParsesNestedDocument)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"name":"x","n":-2.5e2,"flag":true,"none":null,)"
        R"("arr":[1,"two",{"k":3}],"esc":"a\"b\\cA\n"})",
        &doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->asString(), "x");
    EXPECT_DOUBLE_EQ(doc.find("n")->asNumber(), -250.0);
    EXPECT_TRUE(doc.find("flag")->asBool());
    EXPECT_TRUE(doc.find("none")->isNull());
    const auto &arr = doc.find("arr")->items();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[0].asNumber(), 1.0);
    EXPECT_EQ(arr[1].asString(), "two");
    EXPECT_DOUBLE_EQ(arr[2].find("k")->asNumber(), 3.0);
    EXPECT_EQ(doc.find("esc")->asString(), "a\"b\\cA\n");
    EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(CampaignJson, RejectsMalformedDocuments)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson("", &doc, &error));
    EXPECT_FALSE(parseJson("{", &doc, &error));
    EXPECT_FALSE(parseJson("{\"a\":1,}", &doc, &error));
    EXPECT_FALSE(parseJson("[1 2]", &doc, &error));
    EXPECT_FALSE(parseJson("\"unterminated", &doc, &error));
    EXPECT_FALSE(parseJson("\"bad \\q escape\"", &doc, &error));
    EXPECT_FALSE(parseJson("01x", &doc, &error));
    EXPECT_FALSE(parseJson("{} trailing", &doc, &error));
    EXPECT_FALSE(parseJson("1e99999", &doc, &error));
    // The error names a position.
    parseJson("{} trailing", &doc, &error);
    EXPECT_NE(error.find("at byte"), std::string::npos);
}

TEST(CampaignJson, DeepNestingIsRejectedNotACrash)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson(deep, &doc, &error));
    EXPECT_NE(error.find("nested too deeply"), std::string::npos);
}

// ---- spec parsing + expansion ---------------------------------------

JsonValue
parseSpecText(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    return doc;
}

TEST(CampaignSpecParse, MinimalSpecGetsDefaults)
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"c1","prefetchers":["gaze"],"workloads":["mcf"]})"));
    EXPECT_EQ(spec.name, "c1");
    EXPECT_EQ(spec.prefetchers, (std::vector<std::string>{"gaze"}));
    EXPECT_EQ(spec.levels, (std::vector<std::string>{"l1"}));
    EXPECT_EQ(spec.coreCounts, (std::vector<uint32_t>{1}));
    EXPECT_EQ(spec.run.warmupInstr, 0u);
    EXPECT_TRUE(spec.traceDir.empty());
}

// ---- bad specs: one parser, one message everywhere -----------------
//
// Every front end reaches the same parser: a row's diagnostic is what
// the non-fatal parseCampaignSpec returns, what the fatal overload
// (gaze_campaign; gaze_sim through validateCampaignSpec) exits 1
// with, and what gaze_serve rejects a submission with, byte for byte.

struct SpecRow
{
    const char *doc;
    const char *needle; ///< in the diagnostic; nullptr = a valid spec
};

const SpecRow kSpecRows[] = {
    // Accepted by every front end.
    {R"({"name":"c1","prefetchers":["gaze"],"workloads":["mcf"]})",
     nullptr},
    {R"({"name":"c2","prefetchers":["none","gaze:region=2048"],)"
     R"("suites":["spec06","gap"],"levels":["l1","l2"],)"
     R"("cores":[1,4],"warmup":1000,"sim":5000})",
     nullptr},
    {R"({"name":"x","prefetchers":["gaze"],"cores":[64]})", nullptr},

    // The document's own keys and values.
    {R"(["not","an","object"])",
     "campaign spec: document must be a JSON object"},
    {R"({"prefetchers":["gaze"]})",
     "campaign spec: missing required \"name\""},
    {R"({"name":"x"})", "campaign spec: missing required \"prefetchers\""},
    {R"({"name":"","prefetchers":["gaze"]})",
     "campaign spec: \"name\" must be a non-empty string"},
    {R"({"name":"x","prefetchers":["gaze"],"typo_key":1})",
     "campaign spec: unknown key \"typo_key\" (typo?)"},
    {R"({"name":"x","prefetchers":["gaze"],"levels":["l3"]})",
     "unknown attach level 'l3' (want l1 or l2)"},
    // Core counts are bounded by what a System can build: a
    // diagnostic here, never a panic once the job runs.
    {R"({"name":"x","prefetchers":["gaze"],"cores":[0]})",
     "campaign spec: core count must be >= 1"},
    {R"({"name":"x","prefetchers":["gaze"],"cores":[1,65]})",
     "campaign spec: core count 65 exceeds the 64-core limit"},
    {R"({"name":"x","prefetchers":["gaze"],"cores":[1.5]})",
     "campaign spec: cores entry must be a non-negative integer, got 1.5"},
    {R"({"name":"x","prefetchers":["gaze"],"cores":[4294967296]})",
     "campaign spec: cores entry out of range: 4294967296 "
     "(max 4294967295)"},
    // Phase lengths must never silently truncate.
    {R"({"name":"x","prefetchers":["gaze"],"warmup":-3})",
     "campaign spec: warmup must be a non-negative integer, got -3"},
    {R"({"name":"x","prefetchers":["gaze"],"sim":"long"})",
     "campaign spec: sim must be a number"},

    // The registries' diagnostics, passed on whole: the spec text,
    // the known schemes, options or values, the offending number.
    {R"({"name":"x","prefetchers":["warp_drive"]})",
     "unknown prefetcher 'warp_drive' in spec 'warp_drive' (known: "},
    {R"({"name":"x","prefetchers":["gaze:typo=1"]})",
     "prefetcher 'gaze': unknown option 'typo' in spec 'gaze:typo=1' "
     "(options: region, n,"},
    {R"({"name":"x","prefetchers":["gaze:region=3000"]})",
     "prefetcher 'gaze': option 'region' must be a power of two in "
     "spec 'gaze:region=3000', got 3000"},
    {R"({"name":"x","prefetchers":["sms:scheme=psychic"]})",
     "prefetcher 'sms': unknown value 'psychic' for option 'scheme' in "
     "spec 'sms:scheme=psychic' (one of: offset, pc, pc+offset, "
     "pc+addr)"},
    {R"({"name":"x","prefetchers":["gaze"],"suites":["spec6_typo"]})",
     "unknown suite 'spec6_typo'"},
    // Suites are checked even when "workloads" overrides them — a
    // typo'd axis must never be silently dropped.
    {R"({"name":"x","prefetchers":["gaze"],"workloads":["mcf"],)"
     R"("suites":["spec6_typo"]})",
     "unknown suite 'spec6_typo'"},
    {R"({"name":"x","prefetchers":["gaze"],"workloads":["nope"]})",
     "unknown workload 'nope'"},
    // trace_dir is probed up front: a dangling path is a diagnostic
    // naming the command that records the trace.
    {R"({"name":"x","prefetchers":["gaze"],"workloads":["mcf"],)"
     R"("trace_dir":"/no/such/dir"})",
     "workload 'mcf' has no usable trace in '/no/such/dir': "
     "/no/such/dir/mcf.gzt: cannot open trace file (record one with: "
     "gaze_trace record --workloads=mcf --out-dir=/no/such/dir)"},
};

/** The reason an in-process gaze_serve gives for rejecting each bad
    row's submission ("" for valid rows, which are not submitted). */
std::vector<std::string>
daemonRejections()
{
    serve::ServiceConfig cfg;
    cfg.cacheDir = freshDir("spec_rows_daemon");
    cfg.threads = 1;
    serve::Service service(cfg);
    std::vector<std::string> events;
    uint64_t client = service.openSession(
        [&events](const std::string &line) { events.push_back(line); });

    std::vector<std::string> reasons;
    for (const auto &row : kSpecRows) {
        reasons.emplace_back();
        if (!row.needle)
            continue;
        events.clear();
        service.handleLine(
            client, serve::encodeSubmit(parseSpecText(row.doc), 0));
        EXPECT_EQ(events.size(), 1u) << row.doc;
        JsonValue event;
        std::string error;
        if (events.empty() || !parseJson(events[0], &event, &error))
            continue;
        const JsonValue *kind = event.find("event");
        const JsonValue *reason = event.find("reason");
        EXPECT_TRUE(kind && kind->isString()
                    && kind->asString() == "rejected")
            << events[0];
        if (reason && reason->isString())
            reasons.back() = reason->asString();
    }
    service.closeSession(client);
    return reasons;
}

TEST(CampaignSpecRows, EveryFrontEndPrintsTheParsersDiagnostic)
{
    // The daemon answers first: the death tests below fork, and a live
    // Service has worker threads.
    std::vector<std::string> reasons = daemonRejections();

    for (size_t i = 0; i < std::size(kSpecRows); ++i) {
        const SpecRow &row = kSpecRows[i];
        SCOPED_TRACE(row.doc);
        JsonValue doc = parseSpecText(row.doc);
        CampaignSpec spec;
        std::string error;
        bool ok = parseCampaignSpec(doc, &spec, &error);
        if (!row.needle) {
            EXPECT_TRUE(ok) << error;
            CampaignSpec fatal = parseCampaignSpec(doc);
            EXPECT_EQ(fatal.prefetchers, spec.prefetchers);
            EXPECT_EQ(fatal.coreCounts, spec.coreCounts);
            continue;
        }
        ASSERT_FALSE(ok);
        EXPECT_NE(error.find(row.needle), std::string::npos) << error;
        EXPECT_EXIT(parseCampaignSpec(doc), testing::ExitedWithCode(1),
                    test::fatalRegex(error));
        EXPECT_EQ(reasons[i], error);
    }
}

TEST(CampaignExpand, CellOrderAndBaselineDedup)
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"c2","prefetchers":["ip_stride","gaze"],)"
        R"("workloads":["leslie3d","mcf"],"levels":["l1","l2"],)"
        R"("cores":[1],"warmup":1000,"sim":4000})"));
    Campaign c = expandCampaign(spec);

    // 2 levels x 1 core count x 2 prefetchers x 2 workloads.
    ASSERT_EQ(c.cells.size(), 8u);
    // Baselines do not depend on prefetcher or level: one per
    // (cores, workload).
    EXPECT_EQ(c.baselines.size(), 2u);

    EXPECT_EQ(c.cells[0].prefetcher, "ip_stride");
    EXPECT_EQ(c.cells[0].workload.name, "leslie3d");
    EXPECT_EQ(c.cells[0].level, "l1");
    EXPECT_EQ(c.cells[1].workload.name, "mcf");
    EXPECT_EQ(c.cells[2].prefetcher, "gaze");
    EXPECT_EQ(c.cells[4].level, "l2");

    // l1 and l2 attachment of the same prefetcher are different
    // cells, but share a baseline.
    EXPECT_NE(c.cells[0].hash, c.cells[4].hash);
    EXPECT_EQ(c.cells[0].baselineHash, c.cells[4].baselineHash);

    // Expansion is deterministic.
    Campaign again = expandCampaign(spec);
    ASSERT_EQ(again.cells.size(), c.cells.size());
    for (size_t i = 0; i < c.cells.size(); ++i) {
        EXPECT_EQ(again.cells[i].key, c.cells[i].key);
        EXPECT_EQ(again.cells[i].hash, c.cells[i].hash);
    }
}

TEST(CampaignExpand, JobsRunWorkloadByWorkloadEachBaselineFirst)
{
    Campaign c = expandCampaign(parseCampaignSpec(parseSpecText(
        R"({"name":"order","prefetchers":["ip_stride","gaze"],)"
        R"("workloads":["leslie3d","mcf"],"levels":["l1","l2"],)"
        R"("cores":[1,2],"warmup":1000,"sim":4000})")));
    std::vector<CampaignJob> jobs = expandCampaignJobs(c);

    // 16 cells + 4 baselines, every hash once.
    ASSERT_EQ(jobs.size(), 20u);
    std::map<uint64_t, const CampaignCell *> cells;
    for (const auto &cell : c.cells)
        cells[cell.hash] = &cell;

    // Each workload's 10 jobs are contiguous, in axis order; each
    // (workload, cores) baseline comes first and is followed by
    // exactly the 4 cells scored against it.
    const std::vector<std::string> order = {"leslie3d", "mcf"};
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignJob &job = jobs[i];
        EXPECT_EQ(job.workload.name, order[i / 10]) << job.label;
        if (i % 5 == 0) {
            EXPECT_TRUE(job.isBaseline) << job.label;
            EXPECT_EQ(job.cores, i % 10 == 0 ? 1u : 2u) << job.label;
            continue;
        }
        ASSERT_FALSE(job.isBaseline) << job.label;
        ASSERT_EQ(cells.count(job.hash), 1u) << job.label;
        EXPECT_EQ(cells[job.hash]->baselineHash, jobs[i - i % 5].hash)
            << job.label;
    }
    std::set<uint64_t> hashes;
    for (const auto &job : jobs)
        hashes.insert(job.hash);
    EXPECT_EQ(hashes.size(), jobs.size());
}

// ---- canonical cell keys --------------------------------------------

TEST(CellKey, SensitiveToEveryAxis)
{
    RunConfig cfg;
    cfg.warmupInstr = 1000;
    cfg.simInstr = 4000;
    std::vector<WorkloadDef> mix = {findWorkload("mcf")};

    std::string base = canonicalCellText(cfg, PfSpec{"gaze"}, mix);
    EXPECT_EQ(base, canonicalCellText(cfg, PfSpec{"gaze"}, mix));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"pmp"}, mix));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"none", "gaze"}, mix));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{}, mix));

    RunConfig warm = cfg;
    warm.warmupInstr = 2000;
    EXPECT_NE(base, canonicalCellText(warm, PfSpec{"gaze"}, mix));

    RunConfig bigL2 = cfg;
    bigL2.system.l2Bytes *= 2;
    EXPECT_NE(base, canonicalCellText(bigL2, PfSpec{"gaze"}, mix));

    std::vector<WorkloadDef> wide(2, findWorkload("mcf"));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"gaze"}, wide));

    std::vector<WorkloadDef> other = {findWorkload("leslie3d")};
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"gaze"}, other));

    // The schema version is part of the text.
    EXPECT_NE(base.find("schema="), std::string::npos);

    uint64_t h = cellHash(base);
    EXPECT_EQ(h, cellHash(base));
    EXPECT_NE(h, cellHash(base + "x"));
    EXPECT_EQ(cellHashHex(h).size(), 16u);
}

TEST(CellKey, DefaultSystemTextIsPinned)
{
    // Every cached cell is addressed by a hash of this text. Changing
    // how a default system renders re-keys every cell, so it must come
    // with a kCellSchemaVersion bump and a new pin. (The phases after
    // ";warmup=" scale with GAZE_SIM_SCALE, so the pin stops there.)
    std::string text = canonicalCellText(RunConfig{}, PfSpec{"gaze"},
                                         {findWorkload("mcf")});
    EXPECT_EQ(text.substr(0, text.find(";warmup=")),
              "schema=6;core=4/4/352/128/72/2;l1d=49152/12/5/16;"
              "l2=524288/8/10/32;llc=2097152/16/20/64;repl=lru;"
              "dram=auto/1/1/8/2048/3200/4/64/12.5/12.5/12.5/64/64/48/16;"
              "max_cpi=2000");
}

// ---- result cache ---------------------------------------------------

TEST(ResultCacheTest, StoreLookupRoundTrip)
{
    ResultCache cache(freshDir("campaign_cache_rt"));
    CellRecord rec;
    rec.key = "schema=1;test-key";
    rec.summary.ipc = 1.2345;
    rec.summary.pfIssued = 100;
    rec.summary.pfFilled = 90;
    rec.summary.pfUseful = 70;
    rec.summary.pfLate = 5;
    rec.summary.llcDemandMiss = 1234;
    rec.summary.instructionsRetired = 60000;
    rec.summary.eventsDispatched = 7;
    rec.summary.cyclesExecuted = 11;
    rec.summary.cyclesSkipped = 13;
    rec.seconds = 0.5;
    uint64_t hash = cellHash(rec.key);

    CellRecord out;
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out));
    cache.store(hash, rec);
    ASSERT_TRUE(cache.lookup(hash, rec.key, &out));
    EXPECT_DOUBLE_EQ(out.summary.ipc, 1.2345);
    EXPECT_EQ(out.summary.pfIssued, 100u);
    EXPECT_EQ(out.summary.pfFilled, 90u);
    EXPECT_EQ(out.summary.pfUseful, 70u);
    EXPECT_EQ(out.summary.pfLate, 5u);
    EXPECT_EQ(out.summary.llcDemandMiss, 1234u);
    EXPECT_EQ(out.summary.instructionsRetired, 60000u);
    EXPECT_EQ(out.summary.eventsDispatched, 7u);
    EXPECT_EQ(out.summary.cyclesExecuted, 11u);
    EXPECT_EQ(out.summary.cyclesSkipped, 13u);

    // The IPC comes back bit for bit, so a cached cell scores exactly
    // like the run that produced it (10 printed digits would not).
    rec.summary.ipc = 1.0 / 3.0 + 1e-12;
    cache.store(hash, rec);
    ASSERT_TRUE(cache.lookup(hash, rec.key, &out));
    EXPECT_EQ(out.summary.ipc, rec.summary.ipc);

    // No temp droppings left behind by the atomic publish.
    size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             cache.directory())) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(ResultCacheTest, KeyMismatchAndCorruptionReadAsMiss)
{
    ResultCache cache(freshDir("campaign_cache_bad"));
    CellRecord rec;
    rec.key = "schema=1;the-real-key";
    rec.summary.ipc = 1.0;
    uint64_t hash = cellHash(rec.key);
    cache.store(hash, rec);

    // Same hash, different canonical text: hash collision guard.
    CellRecord out;
    std::string why;
    EXPECT_FALSE(cache.lookup(hash, "schema=1;other-key", &out, &why));
    EXPECT_NE(why.find("mismatch"), std::string::npos);

    // Parseable record with a matching key but a missing counter
    // (e.g. written by a modified build that forgot to bump the
    // schema): a miss to recompute, never a fatal.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":" << kCellSchemaVersion << ",\"key\":\""
          << rec.key << "\",\"ipc\":1.0,\"seconds\":0.1}";
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("malformed"), std::string::npos);

    // A record from a previous schema version: stale, reads as miss.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":" << kCellSchemaVersion - 1 << ",\"key\":\""
          << rec.key << "\",\"ipc\":1.0,\"seconds\":0.1}";
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("schema"), std::string::npos);

    // Truncated/garbage file: miss with a reason, not a crash.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":" << kCellSchemaVersion << ",";
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("unparseable"), std::string::npos);

    // Empty file (a store cut off before its first byte): a miss too.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("unparseable"), std::string::npos);

    // A directory in the record's place opens, but sizes as 2^63 - 1
    // bytes: a miss, not an allocation of that size.
    std::filesystem::remove(cache.path(hash));
    std::filesystem::create_directory(cache.path(hash));
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("unparseable"), std::string::npos);
    std::filesystem::remove(cache.path(hash));
}

// ---- RunSummary equivalence -----------------------------------------

TEST(RunSummaryTest, MatchesFullRunResultMetrics)
{
    RunResult base;
    base.cores.push_back({10000, 20000});
    base.llc.loadMiss = 800;
    base.llc.rfoMiss = 200;

    RunResult pf;
    pf.cores.push_back({10000, 15000});
    pf.llc.loadMiss = 350;
    pf.llc.rfoMiss = 50;
    pf.l1d.pfIssued = 500;
    pf.l1d.pfFilled = 400;
    pf.l1d.pfUseful = 300;
    pf.l1d.pfLate = 20;
    pf.l2.pfIssued = 100;
    pf.l2.pfFilled = 80;
    pf.l2.pfUseful = 40;
    pf.l2.pfLate = 4;

    PrefetchMetrics full = computeMetrics(base, pf);
    PrefetchMetrics summarized =
        computeMetrics(summarize(base), summarize(pf));

    EXPECT_DOUBLE_EQ(full.speedup, summarized.speedup);
    EXPECT_DOUBLE_EQ(full.accuracy, summarized.accuracy);
    EXPECT_DOUBLE_EQ(full.coverage, summarized.coverage);
    EXPECT_DOUBLE_EQ(full.lateFraction, summarized.lateFraction);
    EXPECT_EQ(full.pfIssued, summarized.pfIssued);
    EXPECT_EQ(full.pfFilled, summarized.pfFilled);
    EXPECT_EQ(full.pfUseful, summarized.pfUseful);
    EXPECT_EQ(full.pfLate, summarized.pfLate);
    EXPECT_EQ(full.llcMissBase, summarized.llcMissBase);
    EXPECT_EQ(full.llcMissPf, summarized.llcMissPf);
}

// ---- end to end -----------------------------------------------------

Campaign
tinyCampaign()
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"tiny","prefetchers":["ip_stride"],)"
        R"("workloads":["leslie3d","mcf"],)"
        R"("warmup":500,"sim":2000})"));
    return expandCampaign(spec);
}

TEST(CampaignEndToEnd, SecondRunIsAllCacheHitsAndByteIdentical)
{
    Campaign campaign = tinyCampaign();
    ResultCache cache(freshDir("campaign_e2e"));

    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;

    CampaignRunStats first = runCampaign(campaign, &cache, opt);
    EXPECT_EQ(first.executed, 4u); // 2 cells + 2 baselines
    EXPECT_EQ(first.cacheHits, 0u);

    CampaignRunStats second = runCampaign(campaign, &cache, opt);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.cacheHits, 4u);

    CampaignReport r1 = buildReport(campaign, cache, nullptr);
    CampaignReport r2 = buildReport(campaign, cache, nullptr);
    EXPECT_EQ(r1.json, r2.json);
    EXPECT_EQ(r1.csv, r2.csv);
    ASSERT_EQ(r1.suites.size(), 1u);
    EXPECT_EQ(r1.suites[0].prefetcher, "ip_stride");
    EXPECT_EQ(r1.suites[0].workloads, 2u);
    EXPECT_GT(r1.suites[0].summary.speedup, 0.0);
}

TEST(CampaignEndToEnd, ShardsPartitionAndAggregateIdentically)
{
    Campaign campaign = tinyCampaign();

    ResultCache whole(freshDir("campaign_whole"));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    runCampaign(campaign, &whole, opt);
    CampaignReport expected = buildReport(campaign, whole, nullptr);

    ResultCache sharded(freshDir("campaign_sharded"));
    CampaignRunOptions shard0 = opt;
    shard0.shardIndex = 0;
    shard0.shardCount = 2;
    CampaignRunOptions shard1 = opt;
    shard1.shardIndex = 1;
    shard1.shardCount = 2;

    CampaignRunStats s0 = runCampaign(campaign, &sharded, shard0);
    EXPECT_EQ(s0.executed, 2u);
    EXPECT_EQ(s0.otherShards, 2u);

    // Before the sibling shard finishes, aggregation must refuse.
    EXPECT_DEATH(buildReport(campaign, sharded, nullptr),
                 "not in cache");

    CampaignRunStats s1 = runCampaign(campaign, &sharded, shard1);
    EXPECT_EQ(s1.executed, 2u);

    CampaignReport merged = buildReport(campaign, sharded, nullptr);
    EXPECT_EQ(merged.json, expected.json);
    EXPECT_EQ(merged.csv, expected.csv);

    CampaignCacheStatus status = campaignStatus(campaign, sharded);
    EXPECT_EQ(status.cached, 4u);
    EXPECT_EQ(status.missing, 0u);
}

TEST(CampaignEndToEnd, DuplicateAxisEntriesExecuteOnce)
{
    // A careless spec can name the same workload twice; the duplicate
    // cells share one hash and must collapse to one job (two
    // concurrent jobs would race on the same cache file) while the
    // report still renders every expanded cell.
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"dup","prefetchers":["ip_stride"],)"
        R"("workloads":["mcf","mcf"],"warmup":500,"sim":2000})"));
    Campaign campaign = expandCampaign(spec);
    ASSERT_EQ(campaign.cells.size(), 2u);
    EXPECT_EQ(campaign.cells[0].hash, campaign.cells[1].hash);
    EXPECT_EQ(campaign.baselines.size(), 1u);

    ResultCache cache(freshDir("campaign_dup"));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    CampaignRunStats stats = runCampaign(campaign, &cache, opt);
    EXPECT_EQ(stats.executed, 2u); // 1 baseline + 1 unique cell
    EXPECT_EQ(stats.cacheHits, 0u);

    CampaignReport report = buildReport(campaign, cache, nullptr);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report.json, &doc, &error)) << error;
    EXPECT_EQ(doc.find("cells")->items().size(), 2u);
}

TEST(CampaignEndToEnd, CompareSectionReportsZeroDeltaAgainstSelf)
{
    Campaign campaign = tinyCampaign();
    ResultCache cache(freshDir("campaign_cmp"));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    runCampaign(campaign, &cache, opt);

    CampaignReport plain = buildReport(campaign, cache, nullptr);
    JsonValue previous;
    std::string error;
    ASSERT_TRUE(parseJson(plain.json, &previous, &error)) << error;

    CampaignReport compared = buildReport(campaign, cache, &previous);
    JsonValue doc;
    ASSERT_TRUE(parseJson(compared.json, &doc, &error)) << error;
    const JsonValue *compare = doc.find("compare");
    ASSERT_NE(compare, nullptr);
    const auto &rows = compare->find("suites")->items();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_DOUBLE_EQ(rows[0].find("speedup_delta")->asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(
        compare->find("rows_without_previous")->asNumber(), 0.0);
}

// ---- suite aggregation ----------------------------------------------

/** A campaign whose workload axis spans spec06 (mcf, leslie3d) and
    ligra (PageRank-1). */
Campaign
twoSuiteCampaign()
{
    return expandCampaign(parseCampaignSpec(parseSpecText(
        R"({"name":"two_suites","prefetchers":["ip_stride","gaze"],)"
        R"("workloads":["mcf","PageRank-1","leslie3d"],)"
        R"("warmup":500,"sim":2000})")));
}

/** Distinct made-up records for every job of @p campaign, so each
    aggregate is non-trivial without simulating anything. */
CellRecords
syntheticRecords(const Campaign &campaign)
{
    CellRecords records;
    uint64_t n = 0;
    for (const CampaignJob &job : expandCampaignJobs(campaign)) {
        ++n;
        CellRecord rec;
        rec.key = job.key;
        rec.summary.ipc = 0.5 + 0.07 * double(n);
        rec.summary.pfFilled = 100 + 13 * n;
        rec.summary.pfUseful = 40 + 7 * n;
        rec.summary.pfLate = 3 + n;
        rec.summary.llcDemandMiss = 900 - 11 * n;
        records.emplace(job.hash, rec);
    }
    return records;
}

TEST(CampaignSuiteRows, MultiSuiteGroupsEndWithOneAllRow)
{
    Campaign campaign = twoSuiteCampaign();
    CampaignMetrics scored =
        computeCampaignMetrics(campaign, syntheticRecords(campaign));

    // Per (level, cores, prefetcher) group: spec06, ligra, then all.
    const size_t nw = campaign.workloads.size();
    const size_t groups = campaign.cells.size() / nw;
    ASSERT_EQ(groups, 2u);
    ASSERT_EQ(scored.suites.size(), groups * 3);
    for (size_t g = 0; g < groups; ++g) {
        const CampaignSuiteRow *rows = &scored.suites[g * 3];
        EXPECT_EQ(rows[0].suite, "spec06");
        EXPECT_EQ(rows[0].workloads, 2u);
        EXPECT_EQ(rows[1].suite, "ligra");
        EXPECT_EQ(rows[1].workloads, 1u);

        const CampaignSuiteRow &all = rows[2];
        EXPECT_EQ(all.suite, "all");
        EXPECT_EQ(all.prefetcher, campaign.cells[g * nw].prefetcher);
        EXPECT_EQ(all.workloads, nw);
        std::vector<double> speedups;
        double acc = 0.0, cov = 0.0, late = 0.0;
        for (size_t wi = 0; wi < nw; ++wi) {
            const PrefetchMetrics &m = scored.cells[g * nw + wi];
            speedups.push_back(m.speedup);
            acc += m.accuracy;
            cov += m.coverage;
            late += m.lateFraction;
        }
        EXPECT_EQ(all.summary.speedup, geomean(speedups));
        EXPECT_DOUBLE_EQ(all.summary.accuracy, acc / double(nw));
        EXPECT_DOUBLE_EQ(all.summary.coverage, cov / double(nw));
        EXPECT_DOUBLE_EQ(all.summary.lateFraction, late / double(nw));
        EXPECT_GT(all.summary.accuracy, 0.0);
        EXPECT_GT(all.summary.coverage, 0.0);
        EXPECT_GT(all.summary.lateFraction, 0.0);
    }

    // One suite on the workload axis: its row already is the total.
    Campaign single = tinyCampaign();
    CampaignMetrics one =
        computeCampaignMetrics(single, syntheticRecords(single));
    ASSERT_EQ(one.suites.size(), 1u);
    EXPECT_EQ(one.suites[0].suite, "spec06");
}

TEST(CampaignSuiteRows, TableEndsWithEachRowsStorage)
{
    // Only the stdout table carries storage: the report documents stay
    // what the daemon and the offline pipeline compare byte for byte.
    Campaign campaign = twoSuiteCampaign();
    CampaignReport report =
        buildReport(campaign, syntheticRecords(campaign), nullptr);
    EXPECT_EQ(report.json.find("storage"), std::string::npos);
    EXPECT_EQ(report.csv.find("storage"), std::string::npos);

    CampaignSuiteRow row;
    row.prefetcher = "gaze";
    row.level = "l1";
    row.suite = "spec06";
    CampaignSuiteRow small = row;
    small.prefetcher = "gaze:phtsets=8:region=512";

    auto lastWord = [](const std::string &line) {
        return line.substr(line.find_last_of(' ') + 1);
    };
    std::istringstream table(reportTable({row, small}));
    std::string line;
    std::getline(table, line);
    EXPECT_EQ(lastWord(line), "storage");
    std::getline(table, line); // the rule under the header
    std::getline(table, line);
    EXPECT_EQ(lastWord(line), "4.5KB");
    std::getline(table, line);
    EXPECT_EQ(lastWord(line), "1.4KB");
}

TEST(CampaignSuiteRows, CompareMatchesAllRowsByKey)
{
    Campaign campaign = twoSuiteCampaign();
    ResultCache cache(freshDir("campaign_all_rows"));
    for (const auto &entry : syntheticRecords(campaign))
        cache.store(entry.first, entry.second);

    CampaignReport plain = buildReport(campaign, cache, nullptr);
    JsonValue previous;
    std::string error;
    ASSERT_TRUE(parseJson(plain.json, &previous, &error)) << error;

    // Every row, the all rows included, finds its own earlier value:
    // the synthetic speedups differ between rows, so a row matched to
    // any other would show a non-zero delta.
    CampaignReport compared = buildReport(campaign, cache, &previous);
    JsonValue doc;
    ASSERT_TRUE(parseJson(compared.json, &doc, &error)) << error;
    const JsonValue *compare = doc.find("compare");
    ASSERT_NE(compare, nullptr);
    const auto &rows = compare->find("suites")->items();
    ASSERT_EQ(rows.size(), plain.suites.size());
    size_t allRows = 0;
    for (const auto &row : rows) {
        if (row.find("suite")->asString() == "all")
            ++allRows;
        EXPECT_EQ(row.find("speedup_delta")->asNumber(), 0.0);
    }
    EXPECT_EQ(allRows, 2u);
    EXPECT_EQ(compare->find("rows_without_previous")->asNumber(), 0.0);
}

} // namespace
} // namespace gaze
