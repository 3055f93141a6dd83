/**
 * @file
 * End-to-end regression tests for the paper's headline claims, on
 * miniature workloads (small record counts keep each under a couple
 * of seconds). These are the guardrails for the reproduction: if a
 * simulator or prefetcher change breaks a *shape* the paper reports,
 * one of these fails.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/runner.hh"
#include "prefetchers/factory.hh"
#include "workloads/generators.hh"

namespace gaze
{
namespace
{

RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.warmupInstr = 60000;
    cfg.simInstr = 120000;
    return cfg;
}

// Each helper names its workload by seed: a process generates one trace
// per workload identity (name + scale), so the name must tell seeds
// apart.

WorkloadDef
conflictTemplates(uint64_t seed = 11)
{
    return {"conflict-templates-" + std::to_string(seed), "test", [seed] {
                TemplateParams p;
                p.seed = seed;
                p.records = 300000;
                p.numTemplates = 9;
                p.conflictDegree = 3;
                p.blocksPerTemplate = 12;
                p.sharedPc = true;
                p.revisitFraction = 0.7;
                return genTemplates(p);
            }};
}

WorkloadDef
pureStream(uint64_t seed = 12)
{
    return {"pure-stream-" + std::to_string(seed), "test", [seed] {
                StreamParams p;
                p.seed = seed;
                p.records = 300000;
                p.streams = 2;
                return genStream(p);
            }};
}

WorkloadDef
hazardMix(uint64_t seed = 13)
{
    return {"hazard-mix-" + std::to_string(seed), "test", [seed] {
                StreamHazardParams p;
                p.seed = seed;
                p.records = 300000;
                p.denseFraction = 0.5;
                return genStreamHazard(p);
            }};
}

// §III-B / Fig. 2: on trigger-conflicted recurring footprints, the
// second access disambiguates — Gaze must beat offset-only clearly.
TEST(PaperClaims, SecondAccessBeatsOffsetOnlyOnConflicts)
{
    Runner runner(smallConfig());
    WorkloadDef w = conflictTemplates();
    PrefetchMetrics gaze = runner.evaluate(w, PfSpec{"gaze"});
    PrefetchMetrics offset = runner.evaluate(w, PfSpec{"gaze:n=1"});

    EXPECT_GT(gaze.accuracy, 0.9); // strict matching is near-exact
    EXPECT_GT(gaze.accuracy, offset.accuracy + 0.2);
    EXPECT_GT(gaze.speedup, offset.speedup);
}

// Fig. 4: requiring all four initial accesses raises accuracy but
// loses coverage relative to two.
TEST(PaperClaims, FourAccessesLoseCoverage)
{
    Runner runner(smallConfig());
    WorkloadDef w = conflictTemplates(21);
    PrefetchMetrics n2 = runner.evaluate(w, PfSpec{"gaze"});
    PrefetchMetrics n4 = runner.evaluate(w, PfSpec{"gaze:n=4"});
    EXPECT_LT(n4.coverage, n2.coverage);
}

// §IV-B1: Gaze gains strongly on spatial streaming via the two-stage
// module (most blocks fetched to L2C, backed by stage-2 promotion).
TEST(PaperClaims, StreamingGains)
{
    Runner runner(smallConfig());
    WorkloadDef w = pureStream();
    PrefetchMetrics m = runner.evaluate(w, PfSpec{"gaze"});
    EXPECT_GT(m.speedup, 1.3);
    EXPECT_GT(m.coverage, 0.5);
}

// Fig. 10: with interleaved dense/sparse regions, the dedicated
// streaming module beats learning dense patterns in the PHT.
TEST(PaperClaims, StreamingModuleBeatsPhtReplay)
{
    Runner runner(smallConfig());
    WorkloadDef w = hazardMix();
    PrefetchMetrics sm = runner.evaluate(w, PfSpec{"gaze:sm4ss"});
    PrefetchMetrics pht = runner.evaluate(w, PfSpec{"gaze:pht4ss"});
    PrefetchMetrics full = runner.evaluate(w, PfSpec{"gaze"});
    EXPECT_GT(sm.speedup, pht.speedup);
    // Full Gaze tracks the SM4SS behaviour on streaming regions.
    EXPECT_GT(full.speedup, pht.speedup * 0.98);
}

// §IV-B3: vBerti issues redundant prefetches for resident blocks (no
// region-activation gating); spatial Gaze avoids them structurally.
TEST(PaperClaims, VbertiRedundantPrefetches)
{
    Runner runner(smallConfig());
    WorkloadDef w = pureStream(31);
    RunResult berti = runner.run(w, PfSpec{"vberti"});
    RunResult gaze = runner.run(w, PfSpec{"gaze"});
    // Redundancy ratio: dropped-on-hit per issued.
    double berti_red = berti.l1d.pfIssued
                           ? double(berti.l1d.pfDroppedHit)
                                 / berti.l1d.pfIssued
                           : 0.0;
    double gaze_red = gaze.l1d.pfIssued
                          ? double(gaze.l1d.pfDroppedHit)
                                / gaze.l1d.pfIssued
                          : 0.0;
    EXPECT_GT(berti_red, gaze_red + 0.1);
}

// Fig. 1 / Fig. 6 cloud column: offset-merging (PMP) loses accuracy
// under trigger conflicts while Gaze stays accurate.
TEST(PaperClaims, PmpDilutesOnConflicts)
{
    Runner runner(smallConfig());
    WorkloadDef w = conflictTemplates(41);
    PrefetchMetrics pmp = runner.evaluate(w, PfSpec{"pmp"});
    PrefetchMetrics gaze = runner.evaluate(w, PfSpec{"gaze"});
    EXPECT_GT(gaze.accuracy, pmp.accuracy + 0.15);
    EXPECT_GT(gaze.speedup, pmp.speedup);
}

// Fig. 17a: halving the region size below 4KB costs performance
// (coverage shrinks with the region).
TEST(PaperClaims, SmallRegionsLoseCoverage)
{
    Runner runner(smallConfig());
    WorkloadDef w = pureStream(51);
    PrefetchMetrics full = runner.evaluate(w, PfSpec{"gaze"});
    PrefetchMetrics half = runner.evaluate(
        w, PfSpec{"gaze:region=512:phtsets=8"});
    EXPECT_LT(half.speedup, full.speedup + 0.01);
    EXPECT_LT(half.coverage, full.coverage);
}

// Fig. 14 mechanism: under shared-DRAM contention, accurate Gaze
// degrades more gracefully than over-aggressive PMP.
TEST(PaperClaims, MulticoreContentionFavorsAccuracy)
{
    RunConfig cfg = smallConfig();
    cfg.warmupInstr = 30000;
    cfg.simInstr = 60000;
    cfg.system.dramAuto = false;
    cfg.system.dram.channels = 1; // force contention at 4 cores
    Runner runner(cfg);

    std::vector<WorkloadDef> mix(4, conflictTemplates(61));
    PrefetchMetrics gaze = runner.evaluateMix(mix, PfSpec{"gaze"});
    PrefetchMetrics pmp = runner.evaluateMix(mix, PfSpec{"pmp"});
    EXPECT_GT(gaze.speedup, pmp.speedup);
}

// §III-E: the full Gaze configuration costs ~4.46KB — a fraction of
// the fine-grained schemes (Table IV).
TEST(PaperClaims, StorageBudget)
{
    auto kib = [](const char *spec) {
        return double(makePrefetcher(spec)->storageBits()) / 8 / 1024;
    };
    EXPECT_NEAR(kib("gaze"), 4.46, 0.05);
    EXPECT_GT(kib("bingo") / kib("gaze"), 20.0);
}

} // namespace
} // namespace gaze
