/**
 * @file
 * Cache replacement state. The paper's configuration (Table II) uses
 * LRU in every cache, so LRU is the one policy: each Cache holds an
 * LruPolicy by value and calls it directly.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace gaze
{

/**
 * True least-recently-used, kept as a per-set recency rank per way:
 * rank 0 is the MRU way, rank ways-1 the LRU way, and each set's ranks
 * are a permutation of 0..ways-1. One byte per way keeps even the
 * LLC's state small enough for the host's cache. Ways start ranked by
 * index, way 0 least recent, so a full set that was never touched
 * evicts its lowest way first.
 *
 * Each set's ranks are padded to whole 16-byte chunks and compared a
 * chunk at a time (SSE2 is baseline x86-64; GCC vector extensions
 * compile to it), so one loop serves 1..64 ways. Ranks fit in a
 * signed byte, so one signed compare orders them. Pad bytes hold 127,
 * above every rank, so touch() never ages them, and they sit after
 * the real ways, so they are never the first byte victim() matches.
 */
class LruPolicy
{
  public:
    /** Dies unless 1 <= @p ways <= 64 (ranks and victim masks). */
    LruPolicy(uint32_t sets, uint32_t ways);

    /**
     * A block in (set, way) was hit or filled: move @p way to rank 0,
     * aging every way that was more recent.
     */
    void touch(uint32_t set, uint32_t way);

    /**
     * Choose a victim way in @p set. Bit w of @p valid_mask is set
     * when way w holds a valid block; the lowest invalid way goes
     * first, else the LRU way. (A mask, not a vector<bool>: the fill
     * path builds it from a tag scan without allocating.)
     */
    uint32_t victim(uint32_t set, uint64_t valid_mask) const;

  private:
    /** Sixteen ranks, one chunk of a set (GCC vector extension). */
    typedef int8_t Chunk __attribute__((vector_size(16)));

    uint32_t numWays;
    uint32_t chunksPerSet;
    std::vector<Chunk> rank;
};

} // namespace gaze
