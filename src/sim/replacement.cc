#include "sim/replacement.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hh"

namespace gaze
{

LruPolicy::LruPolicy(uint32_t sets, uint32_t ways)
    : numWays(ways), chunksPerSet((ways + 15) / 16),
      rank(size_t(sets) * chunksPerSet)
{
    GAZE_ASSERT(ways >= 1 && ways <= 64,
                "cache needs at least one way and at most 64 (LRU ranks "
                "are bytes and victim masks 64 bits), got ", ways);
    if (rank.empty())
        return; // zero sets: the cache's geometry check reports it
    for (uint32_t w = 0; w < chunksPerSet * 16; ++w)
        rank[w / 16][w % 16] =
            static_cast<int8_t>(w < ways ? ways - 1 - w : 127);
    // Every set starts alike: copy set 0 over the rest, doubling the
    // copied span, so the fill costs about what a memset would.
    for (size_t done = chunksPerSet; done < rank.size(); done *= 2)
        std::copy_n(rank.begin(), std::min(done, rank.size() - done),
                    rank.begin() + done);
}

void
LruPolicy::touch(uint32_t set, uint32_t way)
{
    Chunk *r = &rank[size_t(set) * chunksPerSet];
    Chunk old = Chunk{} + r[way / 16][way % 16];
    // A compare yields 0 or -1 per byte: subtracting it ages every
    // rank below old by one.
    for (uint32_t c = 0; c < chunksPerSet; ++c)
        r[c] -= r[c] < old;
    r[way / 16][way % 16] = 0;
}

uint32_t
LruPolicy::victim(uint32_t set, uint64_t valid_mask) const
{
    uint64_t all = numWays == 64 ? ~uint64_t(0)
                                 : (uint64_t(1) << numWays) - 1;
    if (uint64_t invalid = ~valid_mask & all)
        return static_cast<uint32_t>(std::countr_zero(invalid));
    const Chunk *r = &rank[size_t(set) * chunksPerSet];
    Chunk lru = Chunk{} + static_cast<int8_t>(numWays - 1);
    for (uint32_t c = 0; c < chunksPerSet; ++c) {
        // 0xff in each byte equal to the LRU rank; the first such
        // byte is the victim.
        Chunk hit = r[c] == lru;
        uint64_t half[2];
        std::memcpy(half, &hit, sizeof(half));
        if (half[0])
            return c * 16 + std::countr_zero(half[0]) / 8;
        if (half[1])
            return c * 16 + 8 + std::countr_zero(half[1]) / 8;
    }
    GAZE_PANIC("LRU ranks of set ", set, " are not a permutation");
}

} // namespace gaze
