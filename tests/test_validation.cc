/**
 * @file
 * Geometry-validation tests: every set-indexed structure masks the key
 * with `sets - 1`, so a non-power-of-two set count must die loudly at
 * construction instead of silently aliasing during sensitivity sweeps.
 */

#include <gtest/gtest.h>

#include "common/lru_table.hh"
#include "core/gaze.hh"
#include "core/gaze_config.hh"
#include "sim/cache.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

TEST(LruTableGeometry, PowerOfTwoSetsConstruct)
{
    for (size_t sets : {1u, 2u, 4u, 64u, 1024u}) {
        LruTable<int> t(sets, 4);
        EXPECT_EQ(t.sets(), sets);
    }
}

TEST(LruTableGeometryDeath, NonPowerOfTwoSetsPanic)
{
    EXPECT_DEATH(LruTable<int>(3, 2), "power of two");
    EXPECT_DEATH(LruTable<int>(24, 1), "power of two");
    EXPECT_DEATH(LruTable<int>(0, 4), "power of two");
}

TEST(LruTableGeometryDeath, ZeroWaysPanics)
{
    EXPECT_DEATH(LruTable<int>(4, 0), "bad geometry");
}

TEST(CacheGeometryDeath, NonPowerOfTwoSetsPanic)
{
    Cycle clock = 0;
    test::FakeMemory mem(&clock);
    CacheParams p;
    p.sets = 48; // 48KB/12-way/64B would give 64 sets; 48 is a typo'd
                 // sweep value that used to alias via the index mask
    EXPECT_DEATH(Cache(p, &mem, &clock), "power of two");
}

TEST(CacheGeometryDeath, DegenerateWaysOrMshrsPanic)
{
    Cycle clock = 0;
    test::FakeMemory mem(&clock);
    CacheParams ways = {};
    ways.ways = 0;
    EXPECT_DEATH(Cache(ways, &mem, &clock), "at least one way");
    // LRU ranks are bytes and victim masks 64 bits: 64 ways is the cap.
    ways.ways = 65;
    EXPECT_DEATH(Cache(ways, &mem, &clock), "at most 64.*got 65");
    CacheParams mshrs = {};
    mshrs.mshrs = 0;
    EXPECT_DEATH(Cache(mshrs, &mem, &clock), "at least one MSHR");
}

TEST(GazeConfigValidation, PaperDefaultsAreValid)
{
    GazeConfig cfg;
    cfg.validate(); // must not die
    GazePrefetcher pf(cfg);
    EXPECT_EQ(pf.name(), "gaze");
}

TEST(GazeConfigValidation, SweepGeometriesAreValid)
{
    for (uint32_t pht_sets : {16u, 32u, 64u, 128u, 256u}) {
        GazeConfig cfg;
        cfg.phtSets = pht_sets;
        cfg.validate();
    }
    for (uint64_t region : {2048ull, 4096ull, 8192ull}) {
        GazeConfig cfg;
        cfg.regionSize = region;
        cfg.validate();
    }
}

TEST(GazeConfigValidationDeath, BadTableGeometryPanics)
{
    GazeConfig ft;
    ft.ftSets = 12;
    EXPECT_DEATH(ft.validate(), "ftSets");

    GazeConfig at;
    at.atSets = 6;
    EXPECT_DEATH(at.validate(), "atSets");

    GazeConfig pht;
    pht.phtSets = 48;
    EXPECT_DEATH(pht.validate(), "phtSets");

    GazeConfig region;
    region.regionSize = 3000;
    EXPECT_DEATH(region.validate(), "regionSize");
}

TEST(GazeConfigValidationDeath, BadPrefetchBufferGeometryPanics)
{
    // 30 entries / 8 ways does not divide evenly.
    GazeConfig ragged;
    ragged.pbEntries = 30;
    EXPECT_DEATH(ragged.validate(), "PB geometry");

    // 24/8 divides, but three sets cannot be mask-indexed.
    GazeConfig non_pow2;
    non_pow2.pbEntries = 24;
    EXPECT_DEATH(non_pow2.validate(), "PB geometry");
}

TEST(GazeConfigValidationDeath, BadInitialAccessCountPanics)
{
    GazeConfig cfg;
    cfg.numInitialAccesses = 0;
    EXPECT_DEATH(cfg.validate(), "numInitialAccesses");
    cfg.numInitialAccesses = 5;
    EXPECT_DEATH(cfg.validate(), "numInitialAccesses");
}

TEST(GazeConfigValidationDeath, ConstructionDiesOnBadGeometry)
{
    GazeConfig cfg;
    cfg.phtSets = 48;
    EXPECT_DEATH(GazePrefetcher{cfg}, "phtSets");
}

} // namespace
} // namespace gaze
