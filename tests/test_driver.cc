/**
 * @file
 * Suite-runner driver tests: the thread pool drains everything it is
 * given, JsonWriter emits syntactically valid documents, and a tiny
 * prefetcher x workload matrix run in-process through gaze_sim's entry
 * point (the campaign engine with no cache) produces parseable JSON
 * with one cell per matrix entry, sane metrics, and the same per-cell
 * and per-suite figures as a gaze_campaign report of the same spec.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <string>

#include "campaign/json.hh"
#include "driver/cli.hh"
#include "driver/driver.hh"
#include "driver/thread_pool.hh"
#include "harness/export.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

// ---- a minimal recursive-descent JSON syntax checker ----------------
// Enough to assert "this is JSON a real parser would accept": objects,
// arrays, strings with escapes, numbers, true/false/null.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text)
        : s(text)
    {
    }

    bool
    valid()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() && std::isspace(unsigned(s[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseString()
    {
        if (s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
                if (s[pos] == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= s.size()
                            || !std::isxdigit(unsigned(s[pos])))
                            return false;
                    }
                }
            }
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    parseNumber()
    {
        size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size()
               && (std::isdigit(unsigned(s[pos])) || s[pos] == '.'
                   || s[pos] == 'e' || s[pos] == 'E' || s[pos] == '+'
                   || s[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool
    parseValue()
    {
        skipWs();
        if (pos >= s.size())
            return false;
        char c = s[pos];
        if (c == '{')
            return parseCompound('}', /*object=*/true);
        if (c == '[')
            return parseCompound(']', /*object=*/false);
        if (c == '"')
            return parseString();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return parseNumber();
    }

    bool
    parseCompound(char close, bool object)
    {
        ++pos; // opening brace/bracket
        skipWs();
        if (pos < s.size() && s[pos] == close) {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (object) {
                if (!parseString())
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return false;
                ++pos;
            }
            if (!parseValue())
                return false;
            skipWs();
            if (pos >= s.size())
                return false;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == close) {
                ++pos;
                return true;
            }
            return false;
        }
    }

    const std::string &s;
    size_t pos = 0;
};

// ---- ThreadPool -----------------------------------------------------

TEST(ThreadPool, DrainsEveryJob)
{
    std::atomic<int> counter{0};
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIsReusable)
{
    std::atomic<int> counter{0};
    ThreadPool pool(2);
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolDeath, ZeroWorkersPanics)
{
    EXPECT_DEATH(ThreadPool{0}, "at least one worker");
}

// ---- JsonWriter -----------------------------------------------------

TEST(JsonWriter, NestedDocumentIsValid)
{
    JsonWriter j;
    j.beginObject();
    j.field("name", std::string("x"));
    j.key("list").beginArray();
    j.value(uint64_t(1)).value(2.5).value(true);
    j.beginObject().field("inner", std::string("y")).endObject();
    j.endArray();
    j.endObject();

    std::string text = j.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_EQ(text,
              "{\"name\":\"x\",\"list\":[1,2.5,true,{\"inner\":\"y\"}]}");
}

TEST(JsonWriter, EscapesStringsAndRejectsNonFinite)
{
    JsonWriter j;
    j.beginObject();
    j.field("quote\"back\\slash\nnewline", std::string("\ttab"));
    j.field("nan", 0.0 / 0.0);
    j.endObject();

    std::string text = j.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\\\""), std::string::npos);
    EXPECT_NE(text.find("\\n"), std::string::npos);
    EXPECT_NE(text.find("\"nan\":null"), std::string::npos);
}

TEST(JsonWriterDeath, MisuseIsFatal)
{
    JsonWriter no_key;
    no_key.beginObject();
    EXPECT_DEATH(no_key.value(uint64_t(1)), "without a key");

    JsonWriter open;
    open.beginObject();
    EXPECT_DEATH(open.str(), "open scopes");

    JsonWriter two_roots;
    two_roots.beginObject();
    two_roots.endObject();
    EXPECT_DEATH(two_roots.beginObject(), "root value");
}

// ---- gaze_sim's run (the campaign engine, no cache) ------------------

GazeSimOptions
tinyOptions()
{
    GazeSimOptions opt;
    opt.spec.name = "driver_test";
    opt.spec.prefetchers = {"ip_stride", "sms"};
    opt.spec.workloadNames = {"leslie3d", "mcf"};
    opt.spec.run.warmupInstr = 1000;
    opt.spec.run.simInstr = 4000;
    opt.threads = 4;
    opt.verbose = false;
    return opt;
}

GazeSimRun
runTiny(const GazeSimOptions &opt)
{
    return runGazeSim(expandCampaign(opt.spec), opt);
}

TEST(Driver, TinyMatrixProducesOneCellPerEntry)
{
    GazeSimRun run = runTiny(tinyOptions());
    const auto &cells = run.campaign.cells;

    ASSERT_EQ(cells.size(), 4u);
    ASSERT_EQ(run.metrics.cells.size(), 4u);
    EXPECT_GE(run.stats.threadsUsed, 1u);
    for (size_t i = 0; i < cells.size(); ++i) {
        const PrefetchMetrics &m = run.metrics.cells[i];
        EXPECT_GT(run.records.at(cells[i].hash).summary.ipc, 0.0)
            << cells[i].prefetcher << " x " << cells[i].workload.name;
        EXPECT_GT(run.records.at(cells[i].baselineHash).summary.ipc,
                  0.0);
        EXPECT_GT(m.speedup, 0.0);
        EXPECT_GE(m.accuracy, 0.0);
        EXPECT_LE(m.accuracy, 1.0);
    }

    // Both prefetcher rows share the same baseline per workload: four
    // cells and two baselines were simulated, each exactly once.
    ASSERT_EQ(cells[0].workload.name, cells[2].workload.name);
    EXPECT_EQ(cells[0].baselineHash, cells[2].baselineHash);
    EXPECT_EQ(run.stats.executed, 6u);
    EXPECT_EQ(run.stats.cacheHits, 0u);
    EXPECT_EQ(run.records.size(), 6u);

    // One suite aggregate per (prefetcher, suite) pair.
    ASSERT_EQ(run.metrics.suites.size(), 2u);
    for (const auto &s : run.metrics.suites) {
        EXPECT_EQ(s.suite, "spec06");
        EXPECT_EQ(s.workloads, 2u);
        EXPECT_GT(s.summary.speedup, 0.0);
    }

    // The engine block sums every job, baselines included.
    uint64_t instructions = 0;
    for (const auto &entry : run.records)
        instructions += entry.second.summary.instructionsRetired;
    EXPECT_GT(instructions, 0u);
    EXPECT_EQ(run.totalInstructions, instructions);
}

TEST(Driver, MatrixJsonIsParseable)
{
    GazeSimRun run = runTiny(tinyOptions());
    std::string json = gazeSimJson(run);

    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"experiment\":\"driver_test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cells\":["), std::string::npos);
    EXPECT_NE(json.find("\"suites\":["), std::string::npos);
    EXPECT_NE(json.find("\"prefetcher\":\"ip_stride\""),
              std::string::npos);

    // The table renderer covers every suite row.
    std::string table = gazeSimSuiteTable(run);
    EXPECT_NE(table.find("ip_stride"), std::string::npos);
    EXPECT_NE(table.find("sms"), std::string::npos);
}

TEST(Driver, MulticoreCellsRun)
{
    GazeSimOptions opt = tinyOptions();
    opt.spec.prefetchers = {"ip_stride"};
    opt.spec.workloadNames = {"leslie3d"};
    opt.spec.coreCounts = {2};
    GazeSimRun run = runTiny(opt);
    ASSERT_EQ(run.campaign.cells.size(), 1u);
    EXPECT_EQ(run.campaign.cells[0].cores, 2u);
    EXPECT_GT(run.records.at(run.campaign.cells[0].hash).summary.ipc,
              0.0);
}

TEST(DriverDeath, EmptyAxesPanic)
{
    GazeSimOptions no_pf = tinyOptions();
    no_pf.spec.prefetchers.clear();
    EXPECT_DEATH(runTiny(no_pf), "expanded to zero cells");

    GazeSimOptions no_cores = tinyOptions();
    no_cores.spec.coreCounts.clear();
    EXPECT_DEATH(runTiny(no_cores), "expanded to zero cells");

    // Validation, which every gaze_sim command line passes through,
    // names the empty axes before anything is expanded.
    CampaignSpec no_levels = tinyOptions().spec;
    no_levels.levels.clear();
    EXPECT_DEATH(validateCampaignSpec(no_levels, "gaze_sim"),
                 "level and core axes must not be empty");
    EXPECT_DEATH(parseGazeSimArgs({"--prefetchers="}),
                 "at least one spec");
    EXPECT_DEATH(parseGazeSimArgs({"--workloads="}),
                 "at least one name");
}

/** Structural equality of two parsed JSON values (numbers exact). */
bool
sameJson(const JsonValue &a, const JsonValue &b)
{
    if (a.type() != b.type())
        return false;
    switch (a.type()) {
      case JsonValue::Type::Null:
        return true;
      case JsonValue::Type::Bool:
        return a.asBool() == b.asBool();
      case JsonValue::Type::Number:
        return a.asNumber() == b.asNumber();
      case JsonValue::Type::String:
        return a.asString() == b.asString();
      case JsonValue::Type::Array:
        if (a.items().size() != b.items().size())
            return false;
        for (size_t i = 0; i < a.items().size(); ++i)
            if (!sameJson(a.items()[i], b.items()[i]))
                return false;
        return true;
      case JsonValue::Type::Object:
        if (a.members().size() != b.members().size())
            return false;
        for (const auto &m : a.members()) {
            const JsonValue *other = b.find(m.first);
            if (!other || !sameJson(m.second, *other))
                return false;
        }
        return true;
    }
    return false;
}

const JsonValue &
member(const JsonValue &doc, const char *key)
{
    static const JsonValue missing = JsonValue::makeNull();
    const JsonValue *v = doc.find(key);
    EXPECT_NE(v, nullptr) << key;
    return v ? *v : missing;
}

TEST(Driver, CellsAndSuiteRowsEqualTheCampaignReport)
{
    // Two suites, so the suite rows aggregate more than one group.
    GazeSimOptions opt = tinyOptions();
    opt.spec.workloadNames = {"leslie3d", "mcf", "BFS-17"};
    Campaign campaign = expandCampaign(opt.spec);
    GazeSimRun run = runGazeSim(campaign, opt);

    std::string dir = testing::TempDir() + "driver_report_parity";
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);
    CampaignRunOptions copt;
    copt.threads = 4;
    copt.verbose = false;
    runCampaign(campaign, &cache, copt);
    CampaignReport report = buildReport(campaign, cache, nullptr);

    JsonValue sim, rep;
    std::string error;
    ASSERT_TRUE(parseJson(gazeSimJson(run), &sim, &error)) << error;
    ASSERT_TRUE(parseJson(report.json, &rep, &error)) << error;

    const auto &simCells = member(sim, "cells").items();
    const auto &repCells = member(rep, "cells").items();
    ASSERT_EQ(simCells.size(), 6u);
    ASSERT_EQ(simCells.size(), repCells.size());
    const char *cellFields[] = {
        "prefetcher", "workload", "suite", "speedup", "accuracy",
        "coverage", "late_fraction", "ipc", "base_ipc", "pf_issued",
        "pf_filled", "pf_useful", "pf_late", "pf_late_load",
        "pf_late_rfo", "llc_miss_base", "llc_miss_pf", "schemes"};
    for (size_t i = 0; i < simCells.size(); ++i)
        for (const char *f : cellFields)
            EXPECT_TRUE(sameJson(member(simCells[i], f),
                                 member(repCells[i], f)))
                << "cell " << i << " field " << f;

    const auto &simRows = member(sim, "suites").items();
    const auto &repRows = member(rep, "suites").items();
    // Two prefetchers x (spec06, ligra, all): the two-suite axis gives
    // each group an "all" row, and both documents carry it.
    ASSERT_EQ(simRows.size(), 6u);
    ASSERT_EQ(simRows.size(), repRows.size());
    const char *rowFields[] = {"prefetcher", "suite", "workloads",
                               "speedup", "accuracy", "coverage",
                               "late_fraction"};
    for (size_t i = 0; i < simRows.size(); ++i)
        for (const char *f : rowFields)
            EXPECT_TRUE(sameJson(member(simRows[i], f),
                                 member(repRows[i], f)))
                << "suite row " << i << " field " << f;

    // In memory too: a cached record reproduces the run's metrics
    // exactly, not just to the documents' printed precision.
    ASSERT_EQ(run.metrics.suites.size(), report.suites.size());
    for (size_t i = 0; i < report.suites.size(); ++i) {
        const SuiteSummary &a = run.metrics.suites[i].summary;
        const SuiteSummary &b = report.suites[i].summary;
        EXPECT_EQ(a.speedup, b.speedup) << "suite row " << i;
        EXPECT_EQ(a.accuracy, b.accuracy) << "suite row " << i;
        EXPECT_EQ(a.coverage, b.coverage) << "suite row " << i;
        EXPECT_EQ(a.lateFraction, b.lateFraction) << "suite row " << i;
    }
}

} // namespace
} // namespace gaze
