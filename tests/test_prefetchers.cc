/**
 * @file
 * Behavioral tests for the baseline prefetchers: each scheme's
 * characteristic mechanism is exercised in isolation (stride
 * confidence, event-keyed footprints, long/short co-association,
 * dual-pattern bandwidth switching, counter-vector merging, IP
 * classification, signature paths, timely local deltas) plus the
 * factory's spec grammar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "core/gaze.hh"
#include "prefetchers/berti.hh"
#include "prefetchers/bingo.hh"
#include "prefetchers/dspatch.hh"
#include "prefetchers/factory.hh"
#include "prefetchers/ip_stride.hh"
#include "prefetchers/ipcp.hh"
#include "prefetchers/pmp.hh"
#include "prefetchers/sms.hh"
#include "prefetchers/spp_ppf.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::CapturingPrefetcher;
using test::drain;
using test::load;

// ------------------------------------------------------------ ip_stride

TEST(IpStride, DetectsConstantStride)
{
    CapturingPrefetcher<IpStridePrefetcher> pf;
    pf.attachBare();
    // Stride of 2 blocks, same PC: confidence builds after repeats.
    for (int i = 0; i < 6; ++i)
        pf.onAccess(load(0x10000 + Addr(i) * 128, 0x400100));
    ASSERT_FALSE(pf.issued.empty());
    // Prefetches run ahead along the stride.
    Addr last_seen = 0x10000 + 5 * 128;
    EXPECT_EQ(pf.issued.back().addr % 128, last_seen % 128);
    EXPECT_GT(pf.issued.back().addr, last_seen);
}

TEST(IpStride, NoIssueWithoutConfidence)
{
    CapturingPrefetcher<IpStridePrefetcher> pf;
    pf.attachBare();
    pf.onAccess(load(0x10000, 0x400100));
    pf.onAccess(load(0x10000 + 128, 0x400100));
    // One stride observation is not enough (threshold 2).
    EXPECT_TRUE(pf.issued.empty());
}

TEST(IpStride, StaysWithinPage)
{
    CapturingPrefetcher<IpStridePrefetcher> pf;
    pf.attachBare();
    // Stride right up to the page edge.
    for (int i = 0; i < 12; ++i)
        pf.onAccess(load(0x10000 + 0xc00 + Addr(i) * 64, 0x400100));
    for (const auto &p : pf.issued)
        EXPECT_EQ(pageNumber(p.addr), pageNumber(Addr(0x10000)));
}

TEST(IpStride, DistinctPcsTrackIndependently)
{
    CapturingPrefetcher<IpStridePrefetcher> pf;
    pf.attachBare();
    // Interleaved PCs with different strides both learn.
    for (int i = 0; i < 8; ++i) {
        pf.onAccess(load(0x10000 + Addr(i) * 64, 0xAAA));
        pf.onAccess(load(0x20000 + Addr(i) * 192, 0xBBB));
    }
    bool saw_a = false, saw_b = false;
    for (const auto &p : pf.issued) {
        saw_a |= pageNumber(p.addr) == pageNumber(Addr(0x10000));
        saw_b |= pageNumber(p.addr) == pageNumber(Addr(0x20000));
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
}

// ------------------------------------------------------------------ sms

TEST(Sms, LearnsAndReplaysByPcOffset)
{
    CapturingPrefetcher<SmsPrefetcher> pf;
    pf.attachBare();
    // Region A: trigger offset 3 (2KB regions -> 32 offsets).
    pf.onAccess(load(0x100000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 7 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 11 * 64, 0x500100));
    pf.onEvict(0x100000 + 3 * 64, 0x100000 + 3 * 64);

    // Same PC + same trigger offset in a new region replays.
    pf.onAccess(load(0x200000 + 3 * 64, 0x500100));
    drain(pf);
    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        offs.push_back(regionOffset(p.addr, 2048));
    std::sort(offs.begin(), offs.end());
    EXPECT_EQ(offs, (std::vector<Addr>{7, 11}));
}

TEST(Sms, DifferentPcDoesNotMatch)
{
    CapturingPrefetcher<SmsPrefetcher> pf;
    pf.attachBare();
    pf.onAccess(load(0x100000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 7 * 64, 0x500100));
    pf.onEvict(0x100000 + 3 * 64, 0x100000 + 3 * 64);

    pf.onAccess(load(0x200000 + 3 * 64, 0x999999));
    drain(pf);
    EXPECT_TRUE(pf.issued.empty());
}

TEST(Sms, OffsetSchemeIgnoresPc)
{
    SmsParams params;
    params.scheme = SmsEventScheme::Offset;
    params.phtSets = 64;
    params.phtWays = 1;
    CapturingPrefetcher<SmsPrefetcher> pf(params);
    pf.attachBare();
    pf.onAccess(load(0x100000 + 3 * 64, 0xAAA));
    pf.onAccess(load(0x100000 + 9 * 64, 0xAAA));
    pf.onEvict(0x100000 + 3 * 64, 0x100000 + 3 * 64);

    // Different PC, same trigger offset: the offset scheme matches.
    pf.onAccess(load(0x200000 + 3 * 64, 0xBBB));
    drain(pf);
    EXPECT_FALSE(pf.issued.empty());
}

TEST(Sms, SchemeNamesAndStorage)
{
    EXPECT_EQ(SmsPrefetcher(SmsParams{}).name(), "sms");
    SmsParams off;
    off.scheme = SmsEventScheme::Offset;
    EXPECT_EQ(SmsPrefetcher(off).name(), "sms_offset");
    // Table IV: SMS with a 16k-entry PHT is in the ~100KB class.
    double kib = double(SmsPrefetcher(SmsParams{}).storageBits()) / 8
                 / 1024;
    EXPECT_GT(kib, 90.0);
}

// ---------------------------------------------------------------- bingo

TEST(Bingo, ExactLongEventMatchWins)
{
    CapturingPrefetcher<BingoPrefetcher> pf;
    pf.attachBare();
    pf.onAccess(load(0x100000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 7 * 64, 0x500100));
    pf.onEvict(0x100000 + 3 * 64, 0x100000 + 3 * 64);

    // Same PC + same full address (region revisit): exact match.
    pf.onAccess(load(0x100000 + 3 * 64, 0x500100));
    drain(pf);
    EXPECT_EQ(pf.exactMatches(), 1u);
    ASSERT_FALSE(pf.issued.empty());
    EXPECT_EQ(pf.issued[0].fillLevel, uint32_t(levelL1));
}

TEST(Bingo, ShortEventApproximateFallback)
{
    CapturingPrefetcher<BingoPrefetcher> pf;
    pf.attachBare();
    pf.onAccess(load(0x100000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 7 * 64, 0x500100));
    pf.onEvict(0x100000 + 3 * 64, 0x100000 + 3 * 64);

    // New region (different address), same PC+offset: approx match.
    pf.onAccess(load(0x200000 + 3 * 64, 0x500100));
    drain(pf);
    EXPECT_EQ(pf.approxMatches(), 1u);
    EXPECT_FALSE(pf.issued.empty());
}

TEST(Bingo, VotingSplitsLevelsByAgreement)
{
    CapturingPrefetcher<BingoPrefetcher> pf;
    pf.attachBare();
    // Three generations, same short event, different long events:
    // block 7 appears in all (100% vote -> L1), 11 in one (33% -> L2).
    pf.onAccess(load(0x100000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 7 * 64, 0x500100));
    pf.onAccess(load(0x100000 + 11 * 64, 0x500100));
    pf.onEvict(0x100000 + 3 * 64, 0x100000 + 3 * 64);
    pf.onAccess(load(0x180000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x180000 + 7 * 64, 0x500100));
    pf.onAccess(load(0x180000 + 13 * 64, 0x500100));
    pf.onEvict(0x180000 + 3 * 64, 0x180000 + 3 * 64);
    pf.onAccess(load(0x280000 + 3 * 64, 0x500100));
    pf.onAccess(load(0x280000 + 7 * 64, 0x500100));
    pf.onAccess(load(0x280000 + 21 * 64, 0x500100));
    pf.onEvict(0x280000 + 3 * 64, 0x280000 + 3 * 64);

    pf.issued.clear();
    pf.onAccess(load(0x200000 + 3 * 64, 0x500100));
    drain(pf);
    std::map<Addr, uint32_t> level;
    for (const auto &p : pf.issued)
        if (regionBase(p.addr, 2048) == 0x200000u)
            level[regionOffset(p.addr, 2048)] = p.fillLevel;
    ASSERT_TRUE(level.count(7));
    EXPECT_EQ(level[7], uint32_t(levelL1)); // unanimous
    ASSERT_TRUE(level.count(11));
    EXPECT_EQ(level[11], uint32_t(levelL2)); // half vote
}

// -------------------------------------------------------------- dspatch

/** DSPatch with a scriptable bandwidth signal. */
class TestableDspatch : public DspatchPrefetcher
{
  public:
    using DspatchPrefetcher::DspatchPrefetcher;
    double busUtilization() const override { return util; }
    double util = 0.0;
};

TEST(Dspatch, CovPUnionUnderLowBandwidth)
{
    CapturingPrefetcher<TestableDspatch> pf;
    pf.attachBare();
    pf.util = 0.1;
    // Two generations from one PC with different footprints.
    pf.onAccess(load(0x100000 + 0 * 64, 0x600100));
    pf.onAccess(load(0x100000 + 2 * 64, 0x600100));
    pf.onEvict(0x100000, 0x100000);
    pf.onAccess(load(0x180000 + 0 * 64, 0x600100));
    pf.onAccess(load(0x180000 + 4 * 64, 0x600100));
    pf.onEvict(0x180000, 0x180000);

    pf.issued.clear();
    pf.onAccess(load(0x200000 + 0 * 64, 0x600100));
    drain(pf);
    // CovP = union {2, 4}: both prefetched (2,4 anchored at trigger 0).
    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        if (regionBase(p.addr, 2048) == 0x200000u)
            offs.push_back(regionOffset(p.addr, 2048));
    std::sort(offs.begin(), offs.end());
    EXPECT_EQ(offs, (std::vector<Addr>{2, 4}));
    EXPECT_GE(pf.covPredictions(), 1u);
}

TEST(Dspatch, AccPIntersectionUnderHighBandwidth)
{
    CapturingPrefetcher<TestableDspatch> pf;
    pf.attachBare();
    pf.util = 0.9;
    pf.onAccess(load(0x100000 + 0 * 64, 0x600100));
    pf.onAccess(load(0x100000 + 2 * 64, 0x600100));
    pf.onAccess(load(0x100000 + 4 * 64, 0x600100));
    pf.onEvict(0x100000, 0x100000);
    pf.onAccess(load(0x180000 + 0 * 64, 0x600100));
    pf.onAccess(load(0x180000 + 4 * 64, 0x600100));
    pf.onEvict(0x180000, 0x180000);

    pf.issued.clear();
    pf.onAccess(load(0x200000 + 0 * 64, 0x600100));
    drain(pf);
    // AccP = intersection {4} only.
    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        if (regionBase(p.addr, 2048) == 0x200000u)
            offs.push_back(regionOffset(p.addr, 2048));
    EXPECT_EQ(offs, (std::vector<Addr>{4}));
    EXPECT_GE(pf.accPredictions(), 1u);
}

TEST(Dspatch, PatternsAreAnchoredAtTrigger)
{
    CapturingPrefetcher<TestableDspatch> pf;
    pf.attachBare();
    pf.util = 0.0;
    // Learn twice (one observation is not a pattern): trigger offset
    // 10 with footprint {10, 12}, then 6 with {6, 8}.
    pf.onAccess(load(0x100000 + 10 * 64, 0x600100));
    pf.onAccess(load(0x100000 + 12 * 64, 0x600100));
    pf.onEvict(0x100000 + 10 * 64, 0x100000 + 10 * 64);
    pf.onAccess(load(0x180000 + 6 * 64, 0x600100));
    pf.onAccess(load(0x180000 + 8 * 64, 0x600100));
    pf.onEvict(0x180000 + 6 * 64, 0x180000 + 6 * 64);

    pf.issued.clear();
    // Replay at trigger offset 20: rotated prediction -> offset 22.
    pf.onAccess(load(0x200000 + 20 * 64, 0x600100));
    drain(pf);
    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        offs.push_back(regionOffset(p.addr, 2048));
    EXPECT_EQ(offs, (std::vector<Addr>{22}));
}

// ------------------------------------------------------------------ pmp

TEST(Pmp, MergedCountersCrossThresholds)
{
    CapturingPrefetcher<PmpPrefetcher> pf;
    pf.attachBare();
    // Many generations with trigger offset 4 and footprint {4,6,8}.
    for (int g = 0; g < 8; ++g) {
        Addr region = 0x100000 + Addr(g) * 4096;
        pf.onAccess(load(region + 4 * 64, 0x700100));
        pf.onAccess(load(region + 6 * 64, 0x700100));
        pf.onAccess(load(region + 8 * 64, 0x700100));
        pf.onEvict(region + 4 * 64, region + 4 * 64);
    }
    pf.issued.clear();
    pf.onAccess(load(0x900000 + 4 * 64, 0x700100));
    drain(pf);
    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        offs.push_back(regionOffset(p.addr));
    std::sort(offs.begin(), offs.end());
    // Blocks 6 and 8 were in 100% of merged patterns -> L1 class.
    EXPECT_EQ(offs, (std::vector<Addr>{6, 8}));
    for (const auto &p : pf.issued)
        EXPECT_EQ(p.fillLevel, uint32_t(levelL1));
}

TEST(Pmp, ConflictingTemplatesDiluteConfidence)
{
    CapturingPrefetcher<PmpPrefetcher> pf;
    pf.attachBare();
    // Alternate two very different footprints with the same trigger:
    // each block appears in only half the merges (conf 0.5 boundary);
    // with the PC table also diluted, prediction degrades to L2-class
    // or over-broad patterns — PMP's documented weakness.
    for (int g = 0; g < 16; ++g) {
        Addr region = 0x100000 + Addr(g) * 4096;
        pf.onAccess(load(region + 4 * 64, 0x700100));
        if (g % 2 == 0) {
            pf.onAccess(load(region + 10 * 64, 0x700100));
        } else {
            pf.onAccess(load(region + 50 * 64, 0x700100));
        }
        pf.onEvict(region + 4 * 64, region + 4 * 64);
    }
    pf.issued.clear();
    pf.onAccess(load(0x900000 + 4 * 64, 0x700100));
    drain(pf);
    // Both 10 and 50 get issued (union behaviour): inaccuracy by
    // construction, since the real region wants only one of them.
    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        if (regionBase(p.addr) == 0x900000u)
            offs.push_back(regionOffset(p.addr));
    std::sort(offs.begin(), offs.end());
    EXPECT_EQ(offs, (std::vector<Addr>{10, 50}));
}

// ----------------------------------------------------------------- ipcp

TEST(Ipcp, ConstantStrideClassIssues)
{
    CapturingPrefetcher<IpcpPrefetcher> pf;
    pf.attachBare();
    for (int i = 0; i < 8; ++i)
        pf.onAccess(load(0x10000 + Addr(i) * 128, 0x800100));
    EXPECT_FALSE(pf.issued.empty());
    // All targets ahead along the +2-block stride, same page.
    for (const auto &p : pf.issued)
        EXPECT_EQ(pageNumber(p.addr), pageNumber(Addr(0x10000)));
}

TEST(Ipcp, RecentRequestFilterSuppressesDuplicates)
{
    CapturingPrefetcher<IpcpPrefetcher> pf;
    pf.attachBare();
    for (int i = 0; i < 6; ++i)
        pf.onAccess(load(0x10000 + Addr(i) * 64, 0x800100));
    size_t first = pf.issued.size();
    // Re-walking the same blocks immediately: RR filter suppresses
    // re-issues of the same targets.
    for (int i = 0; i < 6; ++i)
        pf.onAccess(load(0x10000 + Addr(i) * 64, 0x800100));
    EXPECT_LT(pf.issued.size(), first * 2);
}

TEST(Ipcp, GlobalStreamClassAfterDenseRegion)
{
    CapturingPrefetcher<IpcpPrefetcher> pf;
    pf.attachBare();
    // Touch 24+ blocks of one page to flip it to streaming, then the
    // GS class should issue deep prefetches.
    for (int i = 0; i < 30; ++i)
        pf.onAccess(load(0x40000 + Addr(i) * 64, 0x800200));
    EXPECT_GT(pf.issued.size(), 8u);
}

// ------------------------------------------------------------------ spp

TEST(Spp, LearnsDeltaPathAndPrefetchesAlongIt)
{
    SppParams params;
    CapturingPrefetcher<SppPpfPrefetcher> pf(params);
    pf.attachBare();
    // Constant delta +3 within a page, repeated across pages so the
    // signature path gains confidence.
    for (int page = 0; page < 6; ++page) {
        Addr base = 0x100000 + Addr(page) * 4096;
        for (int i = 0; i < 12; ++i)
            pf.onAccess(load(base + Addr(i * 3) * 64, 0x900100));
    }
    ASSERT_FALSE(pf.issued.empty());
    // Issued targets continue the +3 pattern (multiples of 3 blocks).
    size_t aligned = 0;
    for (const auto &p : pf.issued)
        aligned += regionOffset(p.addr) % 3 == 0;
    EXPECT_GT(double(aligned) / pf.issued.size(), 0.9);
}

TEST(Spp, LookaheadDepthBounded)
{
    SppParams params;
    params.maxDepth = 2;
    CapturingPrefetcher<SppPpfPrefetcher> pf(params);
    pf.attachBare();
    for (int page = 0; page < 6; ++page) {
        Addr base = 0x100000 + Addr(page) * 4096;
        pf.issued.clear();
        for (int i = 0; i < 10; ++i)
            pf.onAccess(load(base + Addr(i) * 64, 0x900100));
    }
    // Per access at most maxDepth issues.
    EXPECT_LE(pf.issued.size(), 10u * params.maxDepth);
}

TEST(Ppf, NegativeTrainingSuppressesProposals)
{
    SppParams params;
    CapturingPrefetcher<SppPpfPrefetcher> pf(params);
    pf.attachBare();
    // Train the pattern, then keep reporting its prefetches useless.
    for (int round = 0; round < 30; ++round) {
        Addr base = 0x100000 + Addr(round) * 4096;
        for (int i = 0; i < 10; ++i)
            pf.onAccess(load(base + Addr(i) * 64, 0x900100));
        // Every issued prefetch is evicted unused.
        for (const auto &p : pf.issued)
            pf.onEvict(p.addr, p.addr);
        pf.issued.clear();
    }
    EXPECT_GT(pf.rejections(), 0u);
}

// ---------------------------------------------------------------- berti

TEST(Berti, LearnsTimelyDeltaAndIssues)
{
    CapturingPrefetcher<BertiPrefetcher> pf;
    pf.attachBare();
    const PC pc = 0xA00100;
    Cycle t = 0;
    // Simulate a steady stream: access block i at t, fill completes
    // with latency 100. The delta that is timely is >= the number of
    // blocks traversed during one latency.
    for (int i = 0; i < 120; ++i) {
        Addr va = 0x100000 + Addr(i) * 64;
        pf.onAccess(load(va, pc, false, t));
        FillEvent f;
        f.vaddr = va;
        f.paddr = va;
        f.pc = pc;
        f.latency = 100;
        f.cycle = t + 100;
        pf.onFill(f);
        t += 20; // 20 cycles per block: timely delta ~ +5 and beyond
    }
    ASSERT_FALSE(pf.issued.empty());
    // The learned delta must be positive (stream direction) and
    // timely-deep: ~2x latency / 20 cycles-per-block = ~10 blocks.
    // Check the last issue: it was triggered by an access near block
    // 119, so its target must be well past it.
    Addr last_access = 0x100000 + 119 * 64;
    EXPECT_GT(pf.issued.back().addr, last_access + 4 * 64);
    // And every target stays within the stream (forward direction).
    for (const auto &p : pf.issued)
        EXPECT_GE(p.addr, 0x100000u);
}

TEST(Berti, CrossPageWithinReach)
{
    CapturingPrefetcher<BertiPrefetcher> pf;
    pf.attachBare();
    const PC pc = 0xA00200;
    Cycle t = 0;
    // Large but in-reach delta: +80 blocks (1.25 pages < 4 pages).
    for (int i = 0; i < 200; ++i) {
        Addr va = 0x100000 + Addr(i) * 64;
        pf.onAccess(load(va, pc, false, t));
        FillEvent f;
        f.vaddr = va;
        f.paddr = va;
        f.pc = pc;
        f.latency = 1000; // very long latency forces big deltas
        f.cycle = t + 1000;
        pf.onFill(f);
        t += 20;
    }
    bool crossed = false;
    for (const auto &p : pf.issued)
        crossed |= pageNumber(p.addr)
                   != pageNumber(p.addr - 50 * 64);
    // vBerti may cross 4KB boundaries (virtual space).
    EXPECT_TRUE(crossed || !pf.issued.empty());
}

TEST(Berti, RejectsUnstableDeltas)
{
    CapturingPrefetcher<BertiPrefetcher> pf;
    pf.attachBare();
    const PC pc = 0xA00300;
    Rng rng(5);
    Cycle t = 0;
    for (int i = 0; i < 100; ++i) {
        Addr va = 0x100000 + rng.below(1024) * 64;
        pf.onAccess(load(va, pc, false, t));
        FillEvent f;
        f.vaddr = va;
        f.paddr = va;
        f.pc = pc;
        f.latency = 100;
        f.cycle = t + 100;
        pf.onFill(f);
        t += 20;
    }
    // Random deltas never clear the confidence thresholds.
    EXPECT_LT(pf.issued.size(), 20u);
}

// -------------------------------------------------------------- factory

TEST(Factory, KnownSpecsConstruct)
{
    for (const auto &spec : knownPrefetcherSpecs()) {
        auto pf = makePrefetcher(spec);
        ASSERT_NE(pf, nullptr) << spec;
        EXPECT_FALSE(pf->name().empty());
    }
}

TEST(Factory, NoneIsNull)
{
    EXPECT_EQ(makePrefetcher("none"), nullptr);
    EXPECT_EQ(makePrefetcher(""), nullptr);
}

TEST(Factory, GazeVariantsParse)
{
    auto n1 = makePrefetcher("gaze:n=1");
    auto *g1 = dynamic_cast<GazePrefetcher *>(n1.get());
    ASSERT_NE(g1, nullptr);
    EXPECT_EQ(g1->config().numInitialAccesses, 1u);
    EXPECT_FALSE(g1->config().enableStreamingModule);

    auto n3 = makePrefetcher("gaze:n=3");
    auto *g3 = dynamic_cast<GazePrefetcher *>(n3.get());
    ASSERT_NE(g3, nullptr);
    EXPECT_EQ(g3->config().phtSets, 1u);
    EXPECT_EQ(g3->config().phtWays, 256u);

    auto r = makePrefetcher("gaze:region=2048:phtsets=32");
    auto *gr = dynamic_cast<GazePrefetcher *>(r.get());
    ASSERT_NE(gr, nullptr);
    EXPECT_EQ(gr->config().regionSize, 2048u);
    EXPECT_EQ(gr->config().phtSets, 32u);

    auto s = makePrefetcher("gaze:sm4ss");
    auto *gs = dynamic_cast<GazePrefetcher *>(s.get());
    ASSERT_NE(gs, nullptr);
    EXPECT_TRUE(gs->config().streamingRegionsOnly);
    EXPECT_FALSE(gs->config().streamingViaPht);
}

TEST(Factory, SmsSchemesParse)
{
    auto off = makePrefetcher("sms:scheme=offset");
    EXPECT_EQ(off->name(), "sms_offset");
    auto pa = makePrefetcher("sms:scheme=pc+addr");
    EXPECT_EQ(pa->name(), "sms_pc+addr");
}

TEST(FactoryDeath, UnknownSpecIsFatal)
{
    EXPECT_DEATH((void)makePrefetcher("bogus"), "unknown prefetcher");
    EXPECT_DEATH((void)makePrefetcher("sms:scheme=nope"),
                 "unknown value 'nope' for option 'scheme'");
}

// ----------------------------------------------------- storage sanity

TEST(Storage, RelativeBudgetsMatchTableIV)
{
    auto kib = [](const char *spec) {
        return double(makePrefetcher(spec)->storageBits()) / 8 / 1024;
    };
    // Bingo/SMS are two orders of magnitude above Gaze; IPCP is tiny.
    EXPECT_GT(kib("bingo"), 20.0 * kib("gaze"));
    EXPECT_GT(kib("sms"), 20.0 * kib("gaze"));
    EXPECT_LT(kib("ipcp"), 1.5);
    EXPECT_LT(kib("vberti"), kib("gaze"));
    EXPECT_NEAR(kib("gaze"), 4.46, 0.05);
}

} // namespace
} // namespace gaze
