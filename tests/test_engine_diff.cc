/**
 * @file
 * Differential engine-equivalence suite: the executable contract that
 * both ways of advancing time — polled, and auto (event stints that
 * skip idle cycles, flipping to polled dispatch mid-run) — produce
 * bitwise identical architectural metrics, on randomized (workload,
 * prefetcher, cores) configurations, plus repeat-run determinism and
 * observation on/off identity. The polled engine is the reference;
 * auto is compared against it field by field.
 *
 * The `*Deep*` cases are the long-haul variant of the same property
 * (more trials, bigger instruction budgets, up to four cores); CTest
 * registers them separately under the `slow` label while the rest of
 * the file gates tier-1.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

// Trace lengths (and therefore every pinned comparison) depend on the
// scale: pin it before anything queries simScale().
const bool kScalePinned = [] {
    setenv("GAZE_SIM_SCALE", "0.02", 1);
    return true;
}();

// ---- comparison helpers ---------------------------------------------

void
expectSameCacheStats(const CacheStats &a, const CacheStats &b,
                     const char *level, const std::string &ctx)
{
#define GAZE_EXPECT_FIELD(f) \
    EXPECT_EQ(a.f, b.f) << ctx << " " << level << " " #f
    GAZE_EXPECT_FIELD(loadAccess);
    GAZE_EXPECT_FIELD(loadHit);
    GAZE_EXPECT_FIELD(loadMiss);
    GAZE_EXPECT_FIELD(rfoAccess);
    GAZE_EXPECT_FIELD(rfoHit);
    GAZE_EXPECT_FIELD(rfoMiss);
    GAZE_EXPECT_FIELD(wbAccess);
    GAZE_EXPECT_FIELD(wbHit);
    GAZE_EXPECT_FIELD(wbMiss);
    GAZE_EXPECT_FIELD(pfIssued);
    GAZE_EXPECT_FIELD(pfDroppedFull);
    GAZE_EXPECT_FIELD(pfDroppedDup);
    GAZE_EXPECT_FIELD(pfDroppedHit);
    GAZE_EXPECT_FIELD(pfDroppedMshr);
    GAZE_EXPECT_FIELD(pfMshrWait);
    GAZE_EXPECT_FIELD(pfDemoted);
    GAZE_EXPECT_FIELD(pfFilled);
    GAZE_EXPECT_FIELD(pfUseful);
    GAZE_EXPECT_FIELD(pfUseless);
    GAZE_EXPECT_FIELD(pfLate);
    GAZE_EXPECT_FIELD(loadMissLate);
    GAZE_EXPECT_FIELD(rfoMissLate);
    GAZE_EXPECT_FIELD(mshrMerge);
    GAZE_EXPECT_FIELD(mshrFullStall);
    GAZE_EXPECT_FIELD(writebacksSent);
    GAZE_EXPECT_FIELD(demandMissLatencySum);
    GAZE_EXPECT_FIELD(demandMissLatencyCnt);
#undef GAZE_EXPECT_FIELD
}

void
expectBitIdentical(const RunResult &got, const RunResult &ref,
                   const std::string &ctx)
{
    ASSERT_EQ(got.cores.size(), ref.cores.size()) << ctx;
    for (size_t c = 0; c < got.cores.size(); ++c) {
        EXPECT_EQ(got.cores[c].instructions, ref.cores[c].instructions)
            << ctx << " core " << c;
        EXPECT_EQ(got.cores[c].cycles, ref.cores[c].cycles)
            << ctx << " core " << c;
    }
    expectSameCacheStats(got.l1d, ref.l1d, "l1d", ctx);
    expectSameCacheStats(got.l2, ref.l2, "l2", ctx);
    expectSameCacheStats(got.llc, ref.llc, "llc", ctx);
    // Per-scheme attribution is part of the architectural contract.
    ASSERT_EQ(got.schemes.size(), ref.schemes.size()) << ctx;
    for (size_t i = 0; i < got.schemes.size(); ++i) {
        const SchemeCount &gs = got.schemes[i];
        const SchemeCount &rs = ref.schemes[i];
        EXPECT_EQ(gs.name, rs.name) << ctx << " scheme " << i;
        EXPECT_EQ(gs.issued, rs.issued) << ctx << " " << rs.name;
        EXPECT_EQ(gs.filled, rs.filled) << ctx << " " << rs.name;
        EXPECT_EQ(gs.useful, rs.useful) << ctx << " " << rs.name;
        EXPECT_EQ(gs.late, rs.late) << ctx << " " << rs.name;
        EXPECT_EQ(gs.useless, rs.useless) << ctx << " " << rs.name;
        EXPECT_EQ(gs.fillToUseSum, rs.fillToUseSum)
            << ctx << " " << rs.name;
        EXPECT_EQ(gs.fillToUseCnt, rs.fillToUseCnt)
            << ctx << " " << rs.name;
    }
    EXPECT_EQ(got.dram.reads, ref.dram.reads) << ctx;
    EXPECT_EQ(got.dram.writes, ref.dram.writes) << ctx;
    EXPECT_EQ(got.dram.rowHits, ref.dram.rowHits) << ctx;
    EXPECT_EQ(got.dram.rowMisses, ref.dram.rowMisses) << ctx;
    EXPECT_EQ(got.dram.busBusyCycles, ref.dram.busBusyCycles) << ctx;
    EXPECT_EQ(got.dram.readLatencySum, ref.dram.readLatencySum) << ctx;
    // Exact double equality is intended: same arithmetic, same order.
    EXPECT_EQ(got.ipc(), ref.ipc()) << ctx;
    // Every engine simulates the same number of cycles overall, and
    // its speed counters must at least be self-consistent.
    EXPECT_EQ(got.engine.cyclesTotal, ref.engine.cyclesTotal) << ctx;
    EXPECT_EQ(got.engine.cyclesExecuted + got.engine.cyclesSkipped,
              got.engine.cyclesTotal)
        << ctx;
}

// ---- randomized configurations --------------------------------------

const std::vector<std::string> kWorkloadPool = {
    "leslie3d", "fotonik3d_s", "BFS-17", "canneal", "mcf",
    "classification-p2c0",
};

const std::vector<std::string> kPrefetcherPool = {
    "", "gaze", "ip_stride", "sms", "dspatch",
};

/** One randomly drawn differential trial. */
struct DiffCase
{
    std::vector<WorkloadDef> mix;
    PfSpec pf;
    uint64_t warmup = 0;
    uint64_t sim = 0;
    std::string label;
};

DiffCase
randomCase(Rng &rng, uint32_t max_cores, uint64_t warmup, uint64_t sim)
{
    DiffCase d;
    // Core counts that keep the scaled LLC's set count a power of two.
    static const uint32_t kCoreChoices[] = {1, 2, 4};
    uint32_t cores;
    do {
        cores = kCoreChoices[rng.below(3)];
    } while (cores > max_cores);
    for (uint32_t c = 0; c < cores; ++c) {
        size_t wi = size_t(rng.below(kWorkloadPool.size()));
        d.mix.push_back(findWorkload(kWorkloadPool[wi]));
        d.label += (c ? "+" : "") + kWorkloadPool[wi];
    }
    d.pf.l1 = kPrefetcherPool[size_t(rng.below(kPrefetcherPool.size()))];
    d.label += " l1=" + (d.pf.l1.empty() ? "none" : d.pf.l1);
    // Occasionally stack an L2 prefetcher on top (multi-level config).
    if (rng.below(4) == 0) {
        d.pf.l2 = "gaze";
        d.label += " l2=gaze";
    }
    d.warmup = warmup;
    d.sim = sim;
    return d;
}

RunResult
runCase(const DiffCase &d, EngineKind kind, obs::TraceSink *sink = nullptr,
        uint64_t interval = 0)
{
    RunConfig cfg;
    cfg.warmupInstr = d.warmup;
    cfg.simInstr = d.sim;
    cfg.system.engine = kind;
    cfg.obs.trace = sink;
    cfg.obs.samplerInterval = interval;
    Runner r(cfg);
    return r.runMix(d.mix, d.pf);
}

void
runDifferentialTrials(Rng &rng, int trials, uint32_t max_cores,
                      uint64_t warmup, uint64_t sim)
{
    for (int t = 0; t < trials; ++t) {
        DiffCase d = randomCase(rng, max_cores, warmup, sim);
        RunResult ref = runCase(d, EngineKind::Polled);
        ASSERT_GT(ref.instructionsRetired, 0u) << d.label;
        expectBitIdentical(runCase(d, EngineKind::Auto), ref,
                           "trial " + std::to_string(t) + " ["
                               + d.label + "] auto vs polled");
    }
}

// ---- tier-1: the differential property ------------------------------

TEST(EngineDiff, RandomConfigsAutoMatchesPolledBitwise)
{
    EXPECT_TRUE(kScalePinned);
    Rng rng(0xd1f5eed1);
    runDifferentialTrials(rng, /*trials=*/5, /*max_cores=*/2,
                          /*warmup=*/1000, /*sim=*/4000);
}

TEST(EngineDiff, AutoEngineFlipsOnDenseWorkloadAndStaysIdentical)
{
    EXPECT_TRUE(kScalePinned);
    // leslie3d streams densely (near-zero skip): the auto engine must
    // actually take its polled path here, or this test is vacuous.
    DiffCase d;
    d.mix = {findWorkload("leslie3d")};
    d.pf.l1 = "gaze";
    d.warmup = 2000;
    d.sim = 8000;
    d.label = "leslie3d dense";
    RunResult ref = runCase(d, EngineKind::Polled);
    RunResult got = runCase(d, EngineKind::Auto);
    expectBitIdentical(got, ref, d.label);
    EXPECT_GT(got.engine.engineFlips, 0u)
        << "auto engine never flipped on a dense workload";
    EXPECT_GT(got.engine.polledCycles, 0u);
}

TEST(EngineDiff, AutoEngineStaysEventOnIdleWorkloadAndStaysIdentical)
{
    EXPECT_TRUE(kScalePinned);
    // canneal is a dependent-load chain: almost every cycle skippable,
    // so the auto engine should never leave event dispatch.
    DiffCase d;
    d.mix = {findWorkload("canneal")};
    d.warmup = 2000;
    d.sim = 8000;
    d.label = "canneal idle";
    RunResult ref = runCase(d, EngineKind::Polled);
    RunResult got = runCase(d, EngineKind::Auto);
    expectBitIdentical(got, ref, d.label);
    EXPECT_EQ(got.engine.engineFlips, 0u);
    EXPECT_GT(got.engine.cyclesSkipped, got.engine.cyclesTotal / 2);
}

TEST(EngineDiff, FourCoreMixAutoMatchesPolled)
{
    EXPECT_TRUE(kScalePinned);
    DiffCase d;
    d.mix = {findWorkload("canneal"), findWorkload("mcf"),
             findWorkload("leslie3d"), findWorkload("BFS-17")};
    d.pf.l1 = "gaze";
    d.warmup = 500;
    d.sim = 1500;
    d.label = "4-core mix";
    expectBitIdentical(runCase(d, EngineKind::Auto),
                       runCase(d, EngineKind::Polled), d.label);
}

TEST(EngineDiff, RepeatRunsAreBitwiseDeterministic)
{
    EXPECT_TRUE(kScalePinned);
    // Fresh Runner per run: determinism must come from the simulation,
    // not shared state.
    DiffCase d;
    d.mix = {findWorkload("mcf"), findWorkload("canneal")};
    d.pf.l1 = "gaze";
    d.warmup = 1000;
    d.sim = 4000;
    d.label = "repeat determinism";
    for (EngineKind kind : {EngineKind::Polled, EngineKind::Auto}) {
        expectBitIdentical(runCase(d, kind), runCase(d, kind),
                           d.label + " " + engineKindName(kind));
    }
}

// ---- observation must never perturb ---------------------------------

TEST(EngineDiff, ObservationOnMatchesObservationOffBitwise)
{
    EXPECT_TRUE(kScalePinned);
    // The observability acceptance criterion: a run with the interval
    // sampler AND the trace sink attached must be bitwise identical to
    // the plain run, on both engines. The sampler's lazy boundary
    // emission and the sink's pure recording are exactly what this
    // pins.
    DiffCase d;
    d.mix = {findWorkload("mcf"), findWorkload("leslie3d")};
    d.pf.l1 = "gaze";
    d.warmup = 1000;
    d.sim = 4000;
    d.label = "obs on/off";
    for (EngineKind kind : {EngineKind::Polled, EngineKind::Auto}) {
        const char *name = engineKindName(kind);
        RunResult off = runCase(d, kind);
        obs::TraceSink sink;
        RunResult on = runCase(d, kind, &sink, /*interval=*/512);
        expectBitIdentical(on, off, d.label + " " + name);
        EXPECT_TRUE(off.obsSamples.empty()) << name;
#if GAZE_OBS_ON
        // The observed run must actually have observed something, or
        // the comparison above is vacuous.
        EXPECT_FALSE(on.obsSamples.empty()) << name;
        EXPECT_GT(sink.eventCount(), 0u) << name;
#endif
    }
}

// ---- deep variant (slow label; excluded from tier-1) ----------------

TEST(EngineDiffDeep, ManyRandomConfigsAutoMatchesPolledBitwise)
{
    EXPECT_TRUE(kScalePinned);
    Rng rng(0xdeed1f);
    runDifferentialTrials(rng, /*trials=*/12, /*max_cores=*/4,
                          /*warmup=*/2000, /*sim=*/8000);
}

} // namespace
} // namespace gaze
