/**
 * @file
 * Replacement policy tests: LRU recency order (and its equivalence to
 * a global-stamp LRU), SRRIP insertion and aging (prefetch fills
 * inserted distant), Random bounds, factory.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "sim/replacement.hh"

namespace gaze
{
namespace
{

uint64_t
allValid(uint32_t ways)
{
    return ways >= 64 ? ~uint64_t(0) : (uint64_t(1) << ways) - 1;
}

/**
 * Reference LRU: a 64-bit global stamp per way, the victim the valid
 * way with the smallest stamp (the lowest such way on a tie), and an
 * invalid way first. LruPolicy's per-set ranks must pick the same way.
 */
class StampLru
{
  public:
    StampLru(uint32_t sets, uint32_t ways)
        : numWays(ways), stamp(size_t(sets) * ways, 0)
    {
    }

    void
    touch(uint32_t set, uint32_t way)
    {
        stamp[size_t(set) * numWays + way] = ++tick;
    }

    uint32_t
    victim(uint32_t set, uint64_t valid_mask) const
    {
        uint32_t best = 0;
        uint64_t best_stamp = ~uint64_t(0);
        for (uint32_t w = 0; w < numWays; ++w) {
            if (!((valid_mask >> w) & 1))
                return w;
            uint64_t s = stamp[size_t(set) * numWays + w];
            if (s < best_stamp) {
                best_stamp = s;
                best = w;
            }
        }
        return best;
    }

  private:
    uint32_t numWays;
    std::vector<uint64_t> stamp;
    uint64_t tick = 0;
};

TEST(Lru, SameVictimsAsGlobalStampLru)
{
    // 12 and 16 ways are the L1D and LLC geometries; 1, 2, 3 and 64
    // are the edges of the rank arithmetic and of the valid mask.
    for (uint32_t ways : {1u, 2u, 3u, 8u, 12u, 16u, 64u}) {
        SCOPED_TRACE(ways);
        const uint32_t sets = 4;
        LruPolicy ranks(sets, ways);
        StampLru stamps(sets, ways);
        Rng rng(0x5eed0000 + ways);
        // A set fills up as a cache's would, and now and then loses
        // random ways (partial valid masks), so victim() sees both
        // free ways and full sets, including ways never touched.
        std::vector<uint64_t> valid(sets, 0);
        for (int step = 0; step < 20000; ++step) {
            uint32_t set = static_cast<uint32_t>(rng.below(sets));
            uint64_t r = rng.below(8);
            if (r < 3) {
                uint32_t want = stamps.victim(set, valid[set]);
                ASSERT_EQ(ranks.victim(set, valid[set]), want)
                    << "step " << step;
                ranks.onFill(set, want, rng.chance(0.3));
                stamps.touch(set, want);
                valid[set] |= uint64_t(1) << want;
            } else if (r < 6) {
                uint32_t way = static_cast<uint32_t>(rng.below(ways));
                ranks.onHit(set, way);
                stamps.touch(set, way);
            } else if (r < 7) {
                valid[set] &= rng.next() & allValid(ways);
            } else {
                uint64_t mask = rng.chance(0.5) ? allValid(ways)
                                                : rng.next() &
                                                      allValid(ways);
                ASSERT_EQ(ranks.victim(set, mask),
                          stamps.victim(set, mask))
                    << "step " << step;
            }
        }
    }
}

TEST(Lru, PrefersInvalidWays)
{
    LruPolicy p(2, 4);
    // Ways 0, 2, 3 valid; way 1 free.
    EXPECT_EQ(p.victim(0, 0b1101), 1u);
}

TEST(Lru, EvictsOldest)
{
    LruPolicy p(1, 4);
    for (uint32_t w = 0; w < 4; ++w)
        p.onFill(0, w, false);
    EXPECT_EQ(p.victim(0, allValid(4)), 0u);
    p.onHit(0, 0);
    EXPECT_EQ(p.victim(0, allValid(4)), 1u);
}

TEST(Lru, SetsIndependent)
{
    LruPolicy p(2, 2);
    p.onFill(0, 0, false);
    p.onFill(0, 1, false);
    p.onFill(1, 1, false);
    p.onFill(1, 0, false);
    EXPECT_EQ(p.victim(0, allValid(2)), 0u);
    EXPECT_EQ(p.victim(1, allValid(2)), 1u);
}

TEST(Srrip, HitPromotesToNearImminent)
{
    SrripPolicy p(1, 4);
    for (uint32_t w = 0; w < 4; ++w)
        p.onFill(0, w, false);
    p.onHit(0, 2);
    // Way 2 was promoted: the victim must be one of the others.
    EXPECT_NE(p.victim(0, allValid(4)), 2u);
}

TEST(Srrip, PrefetchInsertedDistant)
{
    SrripPolicy p(1, 2);
    p.onFill(0, 0, /*prefetch=*/true);
    p.onFill(0, 1, /*prefetch=*/false);
    // The prefetch (distant RRPV) is the first victim.
    EXPECT_EQ(p.victim(0, allValid(2)), 0u);
}

TEST(Random, VictimWithinRangeAndInvalidFirst)
{
    RandomPolicy p(1, 8);
    uint64_t valid = allValid(8);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(p.victim(0, valid), 8u);
    valid &= ~(uint64_t(1) << 5);
    EXPECT_EQ(p.victim(0, valid), 5u);
}

TEST(Factory, MakesAllPolicies)
{
    EXPECT_EQ(makeReplacementPolicy("lru", 4, 4)->name(), "lru");
    EXPECT_EQ(makeReplacementPolicy("srrip", 4, 4)->name(), "srrip");
    EXPECT_EQ(makeReplacementPolicy("random", 4, 4)->name(), "random");
}

TEST(FactoryDeath, UnknownPolicyFatal)
{
    EXPECT_DEATH((void)makeReplacementPolicy("plru", 4, 4),
                 "unknown replacement");
}

} // namespace
} // namespace gaze
