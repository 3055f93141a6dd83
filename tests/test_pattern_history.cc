/**
 * @file
 * Pattern History Module tests: the PHT's trigger-index/second-tag
 * structure (the paper's key mechanism — temporal order verified by
 * the table lookup itself), the generalized n-offset events of Fig. 4,
 * and the streaming detector's DPCT/DC behaviour.
 */

#include <gtest/gtest.h>

#include "core/pattern_history.hh"

namespace gaze
{
namespace
{

InitialAccesses
event(std::initializer_list<uint16_t> offsets)
{
    InitialAccesses e;
    for (uint16_t o : offsets)
        e.push(o);
    return e;
}

Bitset
footprint(std::initializer_list<size_t> bits, size_t size = 64)
{
    Bitset f(size);
    for (size_t b : bits)
        f.set(b);
    return f;
}

TEST(PatternHistoryTable, LearnThenExactLookup)
{
    GazeConfig cfg;
    PatternHistoryTable pht(cfg);
    pht.learn(event({5, 9}), footprint({5, 9, 12, 20}));

    const Bitset *hit = pht.lookup(event({5, 9}));
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->test(12));
    EXPECT_TRUE(hit->test(20));
}

TEST(PatternHistoryTable, SecondOffsetIsPartOfTheKey)
{
    // The Fig. 2 scenario: same trigger, different second access.
    GazeConfig cfg;
    PatternHistoryTable pht(cfg);
    pht.learn(event({5, 9}), footprint({5, 9, 12}));
    pht.learn(event({5, 30}), footprint({5, 30, 40}));

    const Bitset *a = pht.lookup(event({5, 9}));
    const Bitset *b = pht.lookup(event({5, 30}));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->test(12));
    EXPECT_FALSE(a->test(40));
    EXPECT_TRUE(b->test(40));
    EXPECT_FALSE(b->test(12));
}

TEST(PatternHistoryTable, TemporalOrderIsVerified)
{
    // (5, 9) and (9, 5) are different events: the access order
    // matters, which is exactly what distinguishes Gaze from
    // footprint-only characterization.
    GazeConfig cfg;
    PatternHistoryTable pht(cfg);
    pht.learn(event({5, 9}), footprint({5, 9, 12}));
    EXPECT_EQ(pht.lookup(event({9, 5})), nullptr);
    EXPECT_NE(pht.lookup(event({5, 9})), nullptr);
}

TEST(PatternHistoryTable, StrictMissOnUnseenEvent)
{
    GazeConfig cfg;
    PatternHistoryTable pht(cfg);
    pht.learn(event({5, 9}), footprint({5, 9}));
    EXPECT_EQ(pht.lookup(event({5, 10})), nullptr);
    EXPECT_EQ(pht.lookup(event({6, 9})), nullptr);
}

TEST(PatternHistoryTable, RelearnOverwrites)
{
    GazeConfig cfg;
    PatternHistoryTable pht(cfg);
    pht.learn(event({3, 4}), footprint({3, 4, 10}));
    pht.learn(event({3, 4}), footprint({3, 4, 50}));
    const Bitset *fp = pht.lookup(event({3, 4}));
    ASSERT_NE(fp, nullptr);
    EXPECT_FALSE(fp->test(10));
    EXPECT_TRUE(fp->test(50));
    EXPECT_EQ(pht.occupancy(), 1u);
}

TEST(PatternHistoryTable, FourWaySetCapacity)
{
    // Default geometry: 64 sets x 4 ways indexed by trigger. Five
    // events sharing one trigger overflow the set, evicting LRU.
    GazeConfig cfg;
    PatternHistoryTable pht(cfg);
    for (uint16_t s = 10; s < 15; ++s)
        pht.learn(event({7, s}), footprint({7, s}));
    EXPECT_EQ(pht.occupancy(), 4u);
    EXPECT_EQ(pht.lookup(event({7, 10})), nullptr); // LRU evicted
    EXPECT_NE(pht.lookup(event({7, 14})), nullptr);
}

TEST(PatternHistoryTable, ThreeOffsetEvents)
{
    GazeConfig cfg;
    cfg.numInitialAccesses = 3;
    cfg.phtSets = 1;
    cfg.phtWays = 256;
    PatternHistoryTable pht(cfg);
    pht.learn(event({1, 2, 3}), footprint({1, 2, 3, 30}));
    EXPECT_NE(pht.lookup(event({1, 2, 3})), nullptr);
    EXPECT_EQ(pht.lookup(event({1, 2, 4})), nullptr);
    EXPECT_EQ(pht.lookup(event({1, 3, 2})), nullptr);
}

TEST(PatternHistoryTable, SingleOffsetEvents)
{
    GazeConfig cfg;
    cfg.numInitialAccesses = 1;
    PatternHistoryTable pht(cfg);
    pht.learn(event({42}), footprint({42, 43}));
    EXPECT_NE(pht.lookup(event({42})), nullptr);
    // With n=1 the second offset is ignored entirely.
    InitialAccesses e = event({42, 7});
    EXPECT_NE(pht.lookup(e), nullptr);
}

TEST(PatternHistoryTable, LargeRegionGeometry)
{
    // 64KB regions: 1024 offsets; trigger folds into 64 sets and the
    // surplus trigger bits move into the tag, so distinct triggers
    // that alias the same set must not collide.
    GazeConfig cfg;
    cfg.regionSize = 65536;
    PatternHistoryTable pht(cfg);
    pht.learn(event({5, 9}), footprint({5, 9}, 1024));
    pht.learn(event({5 + 64, 9}), footprint({100}, 1024));
    const Bitset *a = pht.lookup(event({5, 9}));
    const Bitset *b = pht.lookup(event({5 + 64, 9}));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->test(5));
    EXPECT_FALSE(a->test(100));
    EXPECT_TRUE(b->test(100));
}

TEST(PatternHistoryTable, StorageBitsMatchTableI)
{
    GazeConfig cfg;
    // Table I: PHT = 256 entries x (6 tag + 2 LRU + 64 bits) = 2304B.
    PatternHistoryTable pht(cfg);
    EXPECT_EQ(pht.storageBits(), 256u * 72);
    EXPECT_EQ(pht.storageBits() / 8, 2304u);
}

// ----------------------------------------------------- StreamingDetector

TEST(StreamingDetector, DensePcIsRemembered)
{
    GazeConfig cfg;
    StreamingDetector sd(cfg);
    EXPECT_FALSE(sd.isDensePc(0x123));
    sd.onDenseRegion(0x123);
    EXPECT_TRUE(sd.isDensePc(0x123));
    EXPECT_FALSE(sd.isDensePc(0x456));
}

TEST(StreamingDetector, DpctCapacityEightPcs)
{
    GazeConfig cfg;
    StreamingDetector sd(cfg);
    for (uint64_t pc = 0; pc < 9; ++pc)
        sd.onDenseRegion(pc);
    EXPECT_FALSE(sd.isDensePc(0)); // LRU evicted
    EXPECT_TRUE(sd.isDensePc(8));
}

TEST(StreamingDetector, CounterFollowsPaperRules)
{
    GazeConfig cfg;
    StreamingDetector sd(cfg);
    EXPECT_FALSE(sd.counterAboveHalf());
    for (int i = 0; i < 7; ++i)
        sd.onDenseRegion(1);
    EXPECT_TRUE(sd.counterFull());
    sd.onSparseRegion(); // 7 -> 3 (fast halve)
    EXPECT_FALSE(sd.counterFull());
    EXPECT_TRUE(sd.counterAboveHalf());
    sd.onSparseRegion(); // 3 -> 1
    EXPECT_FALSE(sd.counterAboveHalf());
}

TEST(StreamingDetector, StorageBitsMatchTableI)
{
    GazeConfig cfg;
    StreamingDetector sd(cfg);
    // Table I: DPCT = 8 x (12 + 3) = 120 bits = 15 bytes (+3b DC).
    EXPECT_EQ(sd.storageBits(), 8u * 15 + 3);
}

} // namespace
} // namespace gaze
