/**
 * @file
 * Observability subsystem suite: the deterministic counter registry
 * (name-sorted export, duplicate rejection), the interval sampler
 * (exact epoch boundaries, byte-identical repeat CSVs, cross-engine
 * agreement on architectural columns), the Chrome-trace sink (the
 * JSON parses and carries both process tracks), and the per-scheme
 * lifecycle attribution invariants.
 *
 * The perturbation-freedom half of the contract (obs-on bitwise
 * identical to obs-off on both engines) lives in
 * test_engine_diff; this file owns the obs outputs themselves.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

// Pin the scale before anything queries simScale(): row counts and
// per-scheme counts depend on trace lengths.
const bool kScalePinned = [] {
    setenv("GAZE_SIM_SCALE", "0.02", 1);
    return true;
}();

// ---- registry -------------------------------------------------------

TEST(ObsRegistry, ExportIsNameSortedAndLive)
{
    uint64_t zeta = 3, alpha = 1, gaugeSrc = 2;
    obs::Registry reg;
    reg.bindCounter("zeta.count", &zeta);
    reg.bindCounter("alpha.count", &alpha);
    reg.bindGauge("mid.gauge", [&] { return gaugeSrc; });
    reg.seal();

    ASSERT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.nameAt(0), "alpha.count");
    EXPECT_EQ(reg.nameAt(1), "mid.gauge");
    EXPECT_EQ(reg.nameAt(2), "zeta.count");
    EXPECT_EQ(reg.snapshot(), (std::vector<uint64_t>{1, 2, 3}));

    // Bindings are live reads of the underlying field, not copies.
    alpha = 10;
    gaugeSrc = 20;
    EXPECT_EQ(reg.valueAt(0), 10u);
    EXPECT_EQ(reg.valueAt(1), 20u);
}

TEST(ObsRegistryDeathTest, DuplicateNameIsFatalAtSeal)
{
    uint64_t x = 0;
    obs::Registry reg;
    reg.bindCounter("dup.name", &x);
    reg.bindCounter("dup.name", &x);
    EXPECT_DEATH(reg.seal(), "duplicate counter name 'dup.name'");
}

TEST(ObsRegistryDeathTest, BindAfterSealIsFatal)
{
    uint64_t x = 0;
    obs::Registry reg;
    reg.seal();
    EXPECT_DEATH(reg.bindCounter("late.bind", &x), "sealed");
}

// ---- interval sampler: boundary semantics ---------------------------

TEST(ObsSampler, EmitsExactIntervalBoundariesLazily)
{
    uint64_t ctr = 0;
    obs::Registry reg;
    reg.bindCounter("c", &ctr);
    reg.seal();

    obs::IntervalSampler s(&reg, /*interval=*/100);
    // Attach mid-run (post-warmup): everything at or before cycle 250
    // is warmup-era and must not produce rows.
    s.startAt(250);
    ctr = 1;
    s.advanceTo(301); // emits boundary 300 with the current value
    ctr = 2;
    s.advanceTo(650); // emits 400, 500, 600 (all lazily, value 2)
    ctr = 3;
    s.finish(700); // flushes the final boundary 700

    const obs::SampleSeries &out = s.series();
    ASSERT_EQ(out.rows.size(), 5u);
    const std::pair<Cycle, uint64_t> expect[] = {
        {300, 1}, {400, 2}, {500, 2}, {600, 2}, {700, 3}};
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(out.rows[i].cycle, expect[i].first) << "row " << i;
        ASSERT_EQ(out.rows[i].values.size(), 1u);
        EXPECT_EQ(out.rows[i].values[0], expect[i].second)
            << "row " << i;
    }
}

TEST(ObsSampler, AdvanceToBoundaryItselfDoesNotEmitIt)
{
    // advanceTo(c) runs *before* cycle c executes: the boundary at c
    // must wait until the engine moves past it (or finish() flushes),
    // because counters can still change at cycle c.
    uint64_t ctr = 0;
    obs::Registry reg;
    reg.bindCounter("c", &ctr);
    reg.seal();

    obs::IntervalSampler s(&reg, 100);
    s.startAt(0);
    s.advanceTo(100);
    EXPECT_TRUE(s.series().rows.empty());
    ctr = 7;
    s.advanceTo(101);
    ASSERT_EQ(s.series().rows.size(), 1u);
    EXPECT_EQ(s.series().rows[0].cycle, 100u);
    EXPECT_EQ(s.series().rows[0].values[0], 7u);
}

// ---- sampler wired through a real run -------------------------------

[[maybe_unused]] RunResult
runObserved(EngineKind kind, uint64_t interval,
            obs::TraceSink *sink = nullptr)
{
    RunConfig cfg;
    cfg.warmupInstr = 1000;
    cfg.simInstr = 4000;
    cfg.system.engine = kind;
    cfg.obs.samplerInterval = interval;
    cfg.obs.trace = sink;
    Runner r(cfg);
    std::vector<WorkloadDef> mix = {findWorkload("mcf")};
    PfSpec pf;
    pf.l1 = "gaze";
    return r.runMix(mix, pf);
}

TEST(ObsTimeline, RowsLandOnExactIntervalMultiples)
{
    EXPECT_TRUE(kScalePinned);
    constexpr uint64_t kInterval = 512;
    RunResult res = runObserved(EngineKind::Auto, kInterval);
    const obs::SampleSeries &s = res.obsSamples;
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s.interval, kInterval);
    ASSERT_FALSE(s.names.empty());
    Cycle prev = 0;
    for (const auto &row : s.rows) {
        EXPECT_EQ(row.cycle % kInterval, 0u) << "cycle " << row.cycle;
        EXPECT_GT(row.cycle, prev) << "rows must strictly increase";
        prev = row.cycle;
        EXPECT_EQ(row.values.size(), s.names.size());
    }
    // Column names are sorted (byte-identical export order).
    for (size_t i = 1; i < s.names.size(); ++i)
        EXPECT_LT(s.names[i - 1], s.names[i]);
}

TEST(ObsTimeline, RepeatRunsProduceByteIdenticalCsv)
{
    EXPECT_TRUE(kScalePinned);
    std::string a =
        runObserved(EngineKind::Auto, 512).obsSamples.toCsv();
    std::string b =
        runObserved(EngineKind::Auto, 512).obsSamples.toCsv();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

/**
 * The timeline columns minus the engine-private ones. Engine counters
 * ("engine.*") legitimately differ across engines — the polled engine
 * executes every cycle. Every architectural column must agree at
 * every boundary, the lazily counted ones included (the cores' stall
 * cycles, the caches' mshrFullStall, pfMshrWait and pfDroppedFull):
 * the engine settles them through each boundary before its row.
 */
bool
engineColumn(const std::string &name)
{
    return name.rfind("engine.", 0) == 0;
}

std::pair<std::vector<std::string>, std::vector<std::vector<uint64_t>>>
architecturalColumns(const obs::SampleSeries &s)
{
    std::vector<size_t> keep;
    std::vector<std::string> names;
    for (size_t i = 0; i < s.names.size(); ++i) {
        if (engineColumn(s.names[i]))
            continue;
        keep.push_back(i);
        names.push_back(s.names[i]);
    }
    std::vector<std::vector<uint64_t>> rows;
    for (const auto &row : s.rows) {
        std::vector<uint64_t> vals;
        vals.push_back(row.cycle);
        for (size_t i : keep)
            vals.push_back(row.values[i]);
        rows.push_back(std::move(vals));
    }
    return {std::move(names), std::move(rows)};
}

TEST(ObsTimeline, EnginesAgreeOnEveryArchitecturalColumn)
{
    EXPECT_TRUE(kScalePinned);
    auto ref =
        architecturalColumns(runObserved(EngineKind::Polled, 512)
                                 .obsSamples);
    ASSERT_FALSE(ref.second.empty());
    auto got =
        architecturalColumns(runObserved(EngineKind::Auto, 512).obsSamples);
    EXPECT_EQ(got.first, ref.first);
    EXPECT_EQ(got.second, ref.second);
}

// ---- trace sink through a real run ----------------------------------

TEST(ObsTrace, DocumentParsesAndCarriesBothProcessTracks)
{
    EXPECT_TRUE(kScalePinned);
    obs::TraceSink sink;
    {
        // A host-time span alongside the simulated-time spans the
        // system emits, as the campaign engine records them.
        obs::HostSpan span(&sink, "test cell");
        RunResult res =
            runObserved(EngineKind::Auto, /*interval=*/0, &sink);
        ASSERT_GT(res.instructionsRetired, 0u);
    }
    ASSERT_GT(sink.eventCount(), 0u);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(sink.toJson(), &doc, &err)) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->items().empty());

    bool simNamed = false, hostNamed = false, simSpan = false,
         hostSpan = false;
    for (const JsonValue &e : events->items()) {
        ASSERT_TRUE(e.isObject());
        const std::string &ph = e.find("ph")->asString();
        auto pid = static_cast<uint64_t>(e.find("pid")->asNumber());
        if (ph == "M" && e.find("name")->asString() == "process_name") {
            simNamed |= pid == obs::kPidSim;
            hostNamed |= pid == obs::kPidHost;
        }
        if (ph == "X") {
            // Complete events must carry ts + dur.
            EXPECT_NE(e.find("ts"), nullptr);
            EXPECT_NE(e.find("dur"), nullptr);
            simSpan |= pid == obs::kPidSim;
            hostSpan |= pid == obs::kPidHost;
        }
    }
    EXPECT_TRUE(simNamed) << "no process_name for simulated time";
    EXPECT_TRUE(hostNamed) << "no process_name for host time";
    EXPECT_TRUE(simSpan) << "no simulated-time span recorded";
    EXPECT_TRUE(hostSpan) << "no host-time span recorded";
}

// ---- per-scheme lifecycle attribution -------------------------------

TEST(ObsAttribution, SchemeCountsSatisfyLifecycleInvariants)
{
    EXPECT_TRUE(kScalePinned);
    RunConfig cfg;
    cfg.warmupInstr = 2000;
    cfg.simInstr = 8000;
    Runner r(cfg);
    std::vector<WorkloadDef> mix = {findWorkload("leslie3d")};
    PfSpec pf;
    pf.l1 = "ip_stride";
    pf.l2 = "gaze";
    RunResult res = r.runMix(mix, pf);

    ASSERT_EQ(res.schemes.size(), 2u);
    EXPECT_EQ(res.schemes[0].name, "ip_stride@l1");
    EXPECT_EQ(res.schemes[1].name, "gaze@l2");

    uint64_t issued = 0, filled = 0, useful = 0, late = 0, useless = 0;
    for (const SchemeCount &s : res.schemes) {
        // A scheme can never fill more than it issued, and the
        // terminal outcomes partition the fills (in-flight fills at
        // run end are in none of them).
        EXPECT_LE(s.filled, s.issued) << s.name;
        EXPECT_LE(s.useful + s.useless, s.filled) << s.name;
        EXPECT_EQ(s.fillToUseCnt, s.useful) << s.name;
        issued += s.issued;
        filled += s.filled;
        useful += s.useful;
        late += s.late;
        useless += s.useless;
    }
    // The attributed totals are exactly the aggregate pf counters the
    // paper metrics are computed from (summed over L1D + L2).
    EXPECT_EQ(issued, res.l1d.pfIssued + res.l2.pfIssued);
    EXPECT_EQ(filled, res.l1d.pfFilled + res.l2.pfFilled);
    EXPECT_EQ(useful, res.l1d.pfUseful + res.l2.pfUseful);
    EXPECT_EQ(late, res.l1d.pfLate + res.l2.pfLate);
    EXPECT_EQ(useless, res.l1d.pfUseless + res.l2.pfUseless);
    // ip_stride on leslie3d streams: it must actually prefetch here,
    // or this test pins nothing.
    EXPECT_GT(res.schemes[0].useful, 0u);
}

TEST(ObsAttribution, LateSplitSumsToLateTotalAtEveryLevel)
{
    EXPECT_TRUE(kScalePinned);
    RunResult res = runObserved(EngineKind::Auto, 0);
    for (const CacheStats *s : {&res.l1d, &res.l2, &res.llc}) {
        EXPECT_EQ(s->loadMissLate + s->rfoMissLate, s->pfLate);
        EXPECT_LE(s->loadMissLate, s->loadMiss);
        EXPECT_LE(s->rfoMissLate, s->rfoMiss);
    }
}

TEST(ObsAttribution, SummaryAndMetricsCarryTheBreakdown)
{
    EXPECT_TRUE(kScalePinned);
    RunConfig cfg;
    cfg.warmupInstr = 2000;
    cfg.simInstr = 8000;
    Runner r(cfg);
    std::vector<WorkloadDef> mix = {findWorkload("leslie3d")};
    const RunResult &base = r.baselineMix(mix);
    PfSpec pf;
    pf.l1 = "ip_stride";
    RunResult res = r.runMix(mix, pf);

    RunSummary sum = summarize(res);
    ASSERT_EQ(sum.schemes.size(), res.schemes.size());
    EXPECT_EQ(sum.pfLateLoad + sum.pfLateRfo, sum.pfLate);

    PrefetchMetrics m = computeMetrics(base, res);
    ASSERT_EQ(m.schemes.size(), 1u);
    const SchemeMetrics &sm = m.schemes[0];
    EXPECT_EQ(sm.name, "ip_stride@l1");
    EXPECT_EQ(sm.issued, res.schemes[0].issued);
    EXPECT_GE(sm.accuracy, 0.0);
    EXPECT_LE(sm.accuracy, 1.0);
    EXPECT_GE(sm.pollution, 0.0);
    EXPECT_LE(sm.pollution, 1.0);
    // Single-scheme run: the scheme's accuracy IS the aggregate.
    EXPECT_DOUBLE_EQ(sm.accuracy, m.accuracy);
    if (sm.useful > 0)
        EXPECT_GT(sm.avgFillToUse, 0.0);
}

} // namespace
} // namespace gaze
