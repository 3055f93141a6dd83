/**
 * @file
 * Behavioral tests of the Gaze prefetcher against the paper's §III
 * mechanisms: FT one-bit filtering, FT->AT promotion on the second
 * access, strict (trigger, second) matching, the two-stage streaming
 * aggressiveness, the region-local stride backup/promotion, eviction-
 * driven deactivation, and the Table I storage budget.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/gaze.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::CapturingPrefetcher;
using test::drain;
using test::load;

class GazeTest : public ::testing::Test
{
  protected:
    void
    build(GazeConfig cfg = {})
    {
        pf = std::make_unique<CapturingPrefetcher<GazePrefetcher>>(cfg);
        pf->attachBare();
    }

    /** Access the blocks of @p region at the given offsets, in order. */
    void
    touch(Addr region, std::initializer_list<uint32_t> offsets,
          PC pc = 0x400100)
    {
        for (uint32_t off : offsets)
            pf->onAccess(load(region + Addr(off) * blockSize, pc));
    }

    /** Complete a region generation: touch, then deactivate. */
    void
    generation(Addr region, std::initializer_list<uint32_t> offsets,
               PC pc = 0x400100)
    {
        touch(region, offsets, pc);
        // Deactivate by evicting one of its demanded blocks.
        uint32_t first = *offsets.begin();
        pf->onEvict(region + Addr(first) * blockSize,
                    region + Addr(first) * blockSize);
    }

    std::vector<Addr>
    issuedOffsets(Addr region)
    {
        std::vector<Addr> out;
        for (const auto &p : pf->issued)
            if (regionBase(p.addr) == region)
                out.push_back(regionOffset(p.addr));
        std::sort(out.begin(), out.end());
        return out;
    }

    std::unique_ptr<CapturingPrefetcher<GazePrefetcher>> pf;
};

TEST_F(GazeTest, OneAccessRegionsStayInFilterTable)
{
    build();
    pf->onAccess(load(0x10000, 0x400100));
    EXPECT_EQ(pf->ftOccupancy(), 1u);
    EXPECT_EQ(pf->atOccupancy(), 0u);
    // Re-touching the same block does not promote.
    pf->onAccess(load(0x10008, 0x400100));
    EXPECT_EQ(pf->atOccupancy(), 0u);
}

TEST_F(GazeTest, SecondDistinctBlockPromotesToAt)
{
    build();
    pf->onAccess(load(0x10000 + 5 * 64, 0x400100));
    pf->onAccess(load(0x10000 + 9 * 64, 0x400100));
    EXPECT_EQ(pf->atOccupancy(), 1u);
    EXPECT_EQ(pf->ftOccupancy(), 0u);
    EXPECT_EQ(pf->counters().regionsActivated, 1u);
    EXPECT_EQ(pf->counters().predictions, 1u);
}

TEST_F(GazeTest, LearnsAndReplaysPattern)
{
    build();
    // Teach the pattern (5, 9) -> {5, 9, 12, 20, 33}.
    generation(0x100000, {5, 9, 12, 20, 33});
    EXPECT_EQ(pf->counters().learnedPht, 1u);

    // A new region with the same first two accesses replays it.
    touch(0x200000, {5, 9});
    drain(*pf);
    auto offs = issuedOffsets(0x200000);
    EXPECT_EQ(offs, (std::vector<Addr>{12, 20, 33}));
    // Already-demanded blocks (5, 9) are never prefetched.
}

TEST_F(GazeTest, StrictMatchingRejectsWrongSecond)
{
    build();
    generation(0x100000, {5, 9, 12, 20});
    uint64_t misses_before = pf->counters().phtMisses;
    touch(0x200000, {5, 10}); // trigger matches, second does not
    drain(*pf);
    EXPECT_TRUE(issuedOffsets(0x200000).empty());
    EXPECT_EQ(pf->counters().phtMisses, misses_before + 1);
}

TEST_F(GazeTest, StrictMatchingRejectsSwappedOrder)
{
    build();
    generation(0x100000, {5, 9, 12, 20});
    touch(0x200000, {9, 5}); // same footprint bits, wrong order
    drain(*pf);
    EXPECT_TRUE(issuedOffsets(0x200000).empty());
}

TEST_F(GazeTest, ConflictingTemplatesDisambiguatedBySecond)
{
    // The Fig. 2 experiment end to end: two templates share trigger 5.
    build();
    generation(0x100000, {5, 9, 12});
    generation(0x101000, {5, 30, 40});

    touch(0x200000, {5, 30});
    drain(*pf);
    EXPECT_EQ(issuedOffsets(0x200000), (std::vector<Addr>{40}));

    touch(0x201000, {5, 9});
    drain(*pf);
    EXPECT_EQ(issuedOffsets(0x201000), (std::vector<Addr>{12}));
}

TEST_F(GazeTest, PhtPatternsGoToL1)
{
    build();
    generation(0x100000, {5, 9, 12});
    touch(0x200000, {5, 9});
    drain(*pf);
    ASSERT_EQ(pf->issued.size(), 1u);
    EXPECT_EQ(pf->issued[0].fillLevel, uint32_t(levelL1));
    EXPECT_TRUE(pf->issued[0].virt);
}

// ------------------------------------------------------ streaming module

class GazeStreamingTest : public GazeTest
{
  protected:
    /** Run a fully dense streaming generation at @p region. */
    void
    denseGeneration(Addr region, PC pc)
    {
        std::vector<uint32_t> all(64);
        for (uint32_t i = 0; i < 64; ++i)
            all[i] = i;
        for (uint32_t off : all)
            pf->onAccess(load(region + Addr(off) * blockSize, pc));
        pf->onEvict(region, region);
    }
};

TEST_F(GazeStreamingTest, StreamingCaseBypassesPht)
{
    build();
    denseGeneration(0x100000, 0x400100);
    // Dense streaming regions are learned by DPCT/DC, not the PHT.
    EXPECT_EQ(pf->counters().learnedPht, 0u);
    EXPECT_EQ(pf->counters().learnedDense, 1u);
    EXPECT_TRUE(pf->streaming().isDensePc(hashPC(0x400100, 12)));
}

TEST_F(GazeStreamingTest, ColdStreamingRefrains)
{
    build();
    // First-ever (0,1) region: DPCT empty, DC zero -> no prefetch.
    touch(0x200000, {0, 1}, 0x777000);
    drain(*pf);
    EXPECT_TRUE(pf->issued.empty());
    EXPECT_EQ(pf->counters().streamNoPrefetch, 1u);
}

TEST_F(GazeStreamingTest, DensePcGetsModerateAggressiveness)
{
    build();
    denseGeneration(0x100000, 0x400100);

    touch(0x200000, {0, 1}, 0x400100);
    drain(*pf, 400);
    EXPECT_EQ(pf->counters().streamFullAggr, 1u);

    // Stage 1 "moderate": first 16 blocks to L1D, the rest to L2C.
    uint32_t l1 = 0, l2 = 0;
    for (const auto &p : pf->issued) {
        if (regionBase(p.addr) != 0x200000u)
            continue;
        uint32_t off = regionOffset(p.addr);
        if (p.fillLevel == levelL1) {
            ++l1;
            EXPECT_LT(off, 16u);
        } else {
            ++l2;
            EXPECT_GE(off, 16u);
        }
    }
    EXPECT_EQ(l1, 14u); // 16 minus the two demanded blocks
    EXPECT_EQ(l2, 48u);
}

TEST_F(GazeStreamingTest, HalfSaturatedCounterPrefetchesL2Only)
{
    build();
    // Three dense generations from pc A push DC to 3 (> 2, not full).
    denseGeneration(0x100000, 0x400100);
    denseGeneration(0x101000, 0x400100);
    denseGeneration(0x102000, 0x400100);
    ASSERT_EQ(pf->streaming().counterValue(), 3u);

    // A different PC (not in DPCT) with DC only half-saturated gets
    // the cautious tier: 16 blocks to L2C only.
    touch(0x200000, {0, 1}, 0x999000);
    drain(*pf, 400);
    EXPECT_EQ(pf->counters().streamHalfAggr, 1u);
    auto offs = issuedOffsets(0x200000);
    EXPECT_EQ(offs.size(), 14u);
    for (const auto &p : pf->issued)
        if (regionBase(p.addr) == 0x200000u)
            EXPECT_EQ(p.fillLevel, uint32_t(levelL2));
}

TEST_F(GazeStreamingTest, TruncatedStreamStillCountsAsDense)
{
    build();
    // A generation that streamed through 20 blocks before one of its
    // blocks was evicted (the common case under interleaved traffic):
    // the dense-prefix rule must still classify it as streaming.
    std::vector<uint32_t> prefix;
    for (uint32_t i = 0; i < 20; ++i)
        prefix.push_back(i);
    for (uint32_t off : prefix)
        pf->onAccess(load(0x100000 + Addr(off) * blockSize, 0x400100));
    pf->onEvict(0x100000, 0x100000);
    EXPECT_EQ(pf->counters().learnedDense, 1u);
    EXPECT_TRUE(pf->streaming().isDensePc(hashPC(0x400100, 12)));

    // But a short prefix (below the 16-block head) counts sparse.
    generation(0x200000, {0, 1, 2, 3}, 0x500200);
    EXPECT_EQ(pf->counters().learnedSparse, 1u);
}

TEST_F(GazeStreamingTest, SparseStreamingLookalikeDecrementsCounter)
{
    build();
    for (int i = 0; i < 7; ++i)
        denseGeneration(0x100000 + Addr(i) * 4096, 0x400100);
    EXPECT_TRUE(pf->streaming().counterFull());

    // A (0,1) region that ends sparse halves the DC.
    generation(0x300000, {0, 1, 2, 3}, 0x400100);
    EXPECT_EQ(pf->counters().learnedSparse, 1u);
    EXPECT_EQ(pf->streaming().counterValue(), 3u);
}

TEST_F(GazeStreamingTest, Stage2PromotesOnUnitStrides)
{
    build();
    denseGeneration(0x100000, 0x400100);
    // New streaming region; stage 1 fires, then three sequential
    // accesses confirm streaming and stage 2 promotes 4 blocks with
    // 2 skipped (offsets 5..8 after touching 0,1,2).
    touch(0x200000, {0, 1, 2}, 0x400100);
    EXPECT_GE(pf->counters().stridePromotions, 1u);
}

TEST_F(GazeStreamingTest, BackupStrideFiresAfterPhtMiss)
{
    build();
    // Unseen pattern (no streaming): strict match fails, stride flag
    // armed; three accesses with matching stride 3 trigger the
    // region-local stride prefetch of 4 blocks, 2 skipped.
    touch(0x200000, {10, 13, 16});
    EXPECT_EQ(pf->counters().phtMisses, 1u);
    EXPECT_EQ(pf->counters().stridePromotions, 1u);
    drain(*pf);
    auto offs = issuedOffsets(0x200000);
    // From offset 16, stride 3, skip 2: 16+3*3=25, 28, 31, 34.
    EXPECT_EQ(offs, (std::vector<Addr>{25, 28, 31, 34}));
}

// ----------------------------------------------------------- deactivation

TEST_F(GazeTest, EvictionOfDemandedBlockEndsGeneration)
{
    build();
    touch(0x100000, {5, 9, 12});
    EXPECT_EQ(pf->atOccupancy(), 1u);
    pf->onEvict(0x100000 + 5 * 64, 0x100000 + 5 * 64);
    EXPECT_EQ(pf->atOccupancy(), 0u);
    EXPECT_EQ(pf->counters().evictionDeactivations, 1u);
    EXPECT_EQ(pf->counters().learnedPht, 1u);
}

TEST_F(GazeTest, EvictionOfUntouchedBlockIsIgnored)
{
    build();
    touch(0x100000, {5, 9});
    pf->onEvict(0x100000 + 40 * 64, 0x100000 + 40 * 64);
    EXPECT_EQ(pf->atOccupancy(), 1u); // still tracking
    EXPECT_EQ(pf->counters().evictionDeactivations, 0u);
}

TEST_F(GazeTest, AtCapacityEvictionLearns)
{
    GazeConfig cfg;
    cfg.atSets = 1;
    cfg.atWays = 2;
    build(cfg);
    touch(0x100000, {5, 9, 12});
    touch(0x101000, {6, 8});
    touch(0x102000, {7, 11}); // evicts the 0x100000 entry (LRU)
    EXPECT_EQ(pf->atOccupancy(), 2u);
    EXPECT_EQ(pf->counters().learnedPht, 1u);

    // The evicted region's pattern is usable immediately.
    touch(0x200000, {5, 9});
    drain(*pf);
    EXPECT_EQ(issuedOffsets(0x200000), (std::vector<Addr>{12}));
}

// ------------------------------------------------------------- variants

TEST_F(GazeTest, FourAccessEventNeedsAllFour)
{
    GazeConfig cfg;
    cfg.numInitialAccesses = 4;
    cfg.phtSets = 1;
    cfg.phtWays = 256;
    build(cfg);
    generation(0x100000, {5, 9, 12, 20, 33});

    // Matching all four initial accesses replays the pattern.
    touch(0x200000, {5, 9, 12, 20});
    drain(*pf);
    EXPECT_EQ(issuedOffsets(0x200000), (std::vector<Addr>{33}));

    // Three matching + one different: strict miss.
    touch(0x300000, {5, 9, 12, 21});
    drain(*pf);
    EXPECT_TRUE(issuedOffsets(0x300000).empty());
}

TEST_F(GazeTest, RegionSize2KHasThirtyTwoOffsets)
{
    GazeConfig cfg;
    cfg.regionSize = 2048;
    cfg.phtSets = 32;
    build(cfg);
    // Offsets are modulo 32 now: block 40 of the 4KB page is offset 8
    // of the second 2KB region.
    generation(0x100000, {5, 9, 12});
    touch(0x200000, {5, 9});
    drain(*pf);
    auto offs = issuedOffsets(0x200000); // region base = 0x200000
    // regionBase() in issuedOffsets assumes 4KB; recompute manually.
    std::vector<Addr> got;
    for (const auto &p : pf->issued)
        got.push_back(regionOffset(p.addr, 2048));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 12u);
    (void)offs;
}

TEST_F(GazeTest, StreamingRegionsOnlyIgnoresNormalPatterns)
{
    GazeConfig cfg;
    cfg.streamingRegionsOnly = true;
    build(cfg);
    generation(0x100000, {5, 9, 12});
    EXPECT_EQ(pf->counters().learnedPht, 0u);
    touch(0x200000, {5, 9});
    drain(*pf);
    EXPECT_TRUE(pf->issued.empty());
}

TEST_F(GazeTest, Pht4ssLearnsDensePatternsInPht)
{
    GazeConfig cfg;
    cfg.streamingViaPht = true;
    cfg.streamingRegionsOnly = true;
    build(cfg);
    std::vector<uint32_t> all;
    for (uint32_t i = 0; i < 64; ++i)
        all.push_back(i);
    for (uint32_t off : all)
        pf->onAccess(load(0x100000 + Addr(off) * blockSize, 0x400100));
    pf->onEvict(0x100000, 0x100000);
    EXPECT_EQ(pf->counters().learnedPht, 1u);
    EXPECT_EQ(pf->counters().learnedDense, 0u);

    touch(0x200000, {0, 1}, 0x400100);
    drain(*pf, 400);
    // PHT4SS blasts the whole dense pattern into L1.
    auto offs = issuedOffsets(0x200000);
    EXPECT_EQ(offs.size(), 62u);
    for (const auto &p : pf->issued)
        if (regionBase(p.addr) == 0x200000u)
            EXPECT_EQ(p.fillLevel, uint32_t(levelL1));
}

TEST_F(GazeTest, StorageBudgetMatchesTableI)
{
    build();
    // Table I total: 4.46KB. Field-exact model: FT 456B + AT 1120B +
    // PHT 2304B + DPCT 15.375B + PB 668B ~ 4.46KB (the paper rounds
    // the AT line to 1128B).
    double kib = double(pf->storageBits()) / 8.0 / 1024.0;
    EXPECT_NEAR(kib, 4.46, 0.05);
}

TEST_F(GazeTest, TrainsOnlyOnLoads)
{
    build();
    DemandAccess a = load(0x100000, 0x400100);
    a.type = AccessType::Rfo;
    pf->onAccess(a);
    EXPECT_EQ(pf->ftOccupancy(), 0u);
}

} // namespace
} // namespace gaze
