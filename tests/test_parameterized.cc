/**
 * @file
 * Parameterized property sweeps (TEST_P):
 *  - Gaze learn/replay roundtrip across every supported region size;
 *  - per-scheme sanity over all factory prefetchers (legal issues,
 *    bounded storage, stable naming);
 *  - PHT geometry sweep: strictness is preserved for every sets/ways
 *    combination.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/gaze.hh"
#include "prefetchers/factory.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::CapturingPrefetcher;
using test::drain;
using test::load;

// ------------------------------------------------ region size sweep

class GazeRegionSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GazeRegionSweep, LearnReplayRoundtrip)
{
    uint64_t region_size = GetParam();
    uint32_t blocks = blocksPerRegion(region_size);

    GazeConfig cfg;
    cfg.regionSize = region_size;
    cfg.phtSets = std::min<uint32_t>(blocks, 64);
    CapturingPrefetcher<GazePrefetcher> pf(cfg);
    pf.attachBare();

    // Teach (2, 5) -> {2, 5, blocks-1} on one region; regions are
    // region_size-aligned so the test works for every size.
    Addr r1 = 8 * region_size;
    Addr r2 = 64 * region_size;
    uint32_t tail = blocks - 1;
    for (uint32_t off : {2u, 5u, tail})
        pf.onAccess(load(r1 + Addr(off) * blockSize, 0x400100));
    pf.onEvict(r1 + 2 * blockSize, r1 + 2 * blockSize);

    for (uint32_t off : {2u, 5u})
        pf.onAccess(load(r2 + Addr(off) * blockSize, 0x400100));
    drain(pf, 400);

    std::vector<Addr> offs;
    for (const auto &p : pf.issued)
        if (regionBase(p.addr, region_size) == r2)
            offs.push_back(regionOffset(p.addr, region_size));
    ASSERT_EQ(offs.size(), 1u) << "region " << region_size;
    EXPECT_EQ(offs[0], tail);

    // Wrong second offset: strict matching must still reject.
    Addr r3 = 128 * region_size;
    pf.issued.clear();
    for (uint32_t off : {2u, 6u})
        pf.onAccess(load(r3 + Addr(off) * blockSize, 0x400100));
    drain(pf, 400);
    for (const auto &p : pf.issued)
        EXPECT_NE(regionBase(p.addr, region_size), r3);
}

INSTANTIATE_TEST_SUITE_P(AllRegionSizes, GazeRegionSweep,
                         ::testing::Values(512, 1024, 2048, 4096,
                                           8192, 16384, 65536));

// ------------------------------------------------ per-scheme sanity

class SchemeSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SchemeSweep, ConstructsWithStableIdentity)
{
    auto pf = makePrefetcher(GetParam());
    ASSERT_NE(pf, nullptr);
    EXPECT_FALSE(pf->name().empty());
    // Names are stable across construction.
    EXPECT_EQ(pf->name(), makePrefetcher(GetParam())->name());
}

TEST_P(SchemeSweep, StorageIsBoundedAndNonzero)
{
    auto pf = makePrefetcher(GetParam());
    uint64_t bits = pf->storageBits();
    EXPECT_GT(bits, 0u);
    // Nothing in Table IV exceeds 200KB.
    EXPECT_LT(bits, 200ull * 1024 * 8);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values("ip_stride", "spp_ppf", "ipcp", "vberti",
                      "vberti:oracle", "sms", "sms:scheme=offset",
                      "sms:scheme=pc", "sms:scheme=pc+addr", "bingo",
                      "dspatch", "pmp", "gaze", "gaze:n=1", "gaze:n=3",
                      "gaze:nostream", "gaze:pht4ss", "gaze:sm4ss",
                      "gaze:region=2048:phtsets=32"));

// ------------------------------------------------ PHT geometry sweep

struct PhtGeom
{
    uint32_t sets;
    uint32_t ways;
};

class PhtGeometrySweep : public ::testing::TestWithParam<PhtGeom>
{
};

TEST_P(PhtGeometrySweep, StrictnessHoldsForAnyGeometry)
{
    GazeConfig cfg;
    cfg.phtSets = GetParam().sets;
    cfg.phtWays = GetParam().ways;
    PatternHistoryTable pht(cfg);

    InitialAccesses good;
    good.push(5);
    good.push(9);
    InitialAccesses wrong_second;
    wrong_second.push(5);
    wrong_second.push(10);
    InitialAccesses swapped;
    swapped.push(9);
    swapped.push(5);

    Bitset fp(64);
    fp.set(5);
    fp.set(9);
    fp.set(33);
    pht.learn(good, fp);

    ASSERT_NE(pht.lookup(good), nullptr);
    EXPECT_EQ(pht.lookup(wrong_second), nullptr);
    EXPECT_EQ(pht.lookup(swapped), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Geometries, PhtGeometrySweep,
                         ::testing::Values(PhtGeom{1, 64},
                                           PhtGeom{16, 4},
                                           PhtGeom{64, 4},
                                           PhtGeom{64, 16},
                                           PhtGeom{128, 2}));

} // namespace
} // namespace gaze
