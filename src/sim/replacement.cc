#include "sim/replacement.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace gaze
{

LruPolicy::LruPolicy(uint32_t sets, uint32_t ways)
    : numWays(ways), rank(size_t(sets) * ways)
{
    GAZE_ASSERT(ways >= 1 && ways <= 64,
                "cache needs at least one way and at most 64 (LRU ranks "
                "are bytes and victim masks 64 bits), got ", ways);
    if (rank.empty())
        return; // zero sets: the cache's geometry check reports it
    for (uint32_t w = 0; w < ways; ++w)
        rank[w] = static_cast<uint8_t>(ways - 1 - w);
    // Every set starts alike: copy set 0 over the rest, doubling the
    // copied span, so the fill costs about what a memset would.
    for (size_t done = ways; done < rank.size(); done *= 2)
        std::copy_n(rank.begin(), std::min(done, rank.size() - done),
                    rank.begin() + done);
}

void
LruPolicy::touch(uint32_t set, uint32_t way)
{
    uint8_t *r = &rank[size_t(set) * numWays];
    uint8_t old = r[way];
    for (uint32_t w = 0; w < numWays; ++w)
        r[w] = static_cast<uint8_t>(r[w] + (r[w] < old));
    r[way] = 0;
}

uint32_t
LruPolicy::victim(uint32_t set, uint64_t valid_mask) const
{
    uint64_t all = numWays == 64 ? ~uint64_t(0)
                                 : (uint64_t(1) << numWays) - 1;
    if (uint64_t invalid = ~valid_mask & all)
        return static_cast<uint32_t>(std::countr_zero(invalid));
    const uint8_t *r = &rank[size_t(set) * numWays];
    for (uint32_t w = 0; w < numWays; ++w)
        if (r[w] == numWays - 1)
            return w;
    GAZE_PANIC("LRU ranks of set ", set, " are not a permutation");
}

} // namespace gaze
