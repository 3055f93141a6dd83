/**
 * @file
 * LRU replacement tests: recency order, invalid ways first, set
 * independence, and equivalence to a global-stamp LRU.
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
                ranks.touch(set, want);
                stamps.touch(set, want);
                valid[set] |= uint64_t(1) << want;
            } else if (r < 6) {
                uint32_t way = static_cast<uint32_t>(rng.below(ways));
                ranks.touch(set, way);
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
        p.touch(0, w);
    EXPECT_EQ(p.victim(0, allValid(4)), 0u);
    p.touch(0, 0);
    EXPECT_EQ(p.victim(0, allValid(4)), 1u);
}

TEST(Lru, SetsIndependent)
{
    LruPolicy p(2, 2);
    p.touch(0, 0);
    p.touch(0, 1);
    p.touch(1, 1);
    p.touch(1, 0);
    EXPECT_EQ(p.victim(0, allValid(2)), 0u);
    EXPECT_EQ(p.victim(1, allValid(2)), 1u);
}

} // namespace
} // namespace gaze
