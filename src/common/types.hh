/**
 * @file
 * Fundamental address/cycle types and address-arithmetic helpers shared by
 * the whole simulator. All addresses are byte addresses unless a name says
 * otherwise (blockAddr, pageNumber, ...).
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace gaze
{

/** Byte address (virtual or physical; context decides). */
using Addr = uint64_t;

/** Simulation time in CPU cycles. */
using Cycle = uint64_t;

/** Program counter of the instruction that issued an access. */
using PC = uint64_t;

/** Cache block (line) size in bytes. Fixed at 64B across the hierarchy. */
inline constexpr uint64_t blockSize = 64;

/** log2(blockSize). */
inline constexpr uint64_t blockShift = 6;

/** Base page / default spatial-region size (4KB, one physical page). */
inline constexpr uint64_t pageSize = 4096;

/** log2(pageSize). */
inline constexpr uint64_t pageShift = 12;

/** Blocks per 4KB page: 64 distinct offsets, each fits in 6 bits. */
inline constexpr uint64_t blocksPerPage = pageSize / blockSize;

/** Return the block-aligned address containing @p a. */
constexpr Addr
blockAlign(Addr a)
{
    return a & ~(blockSize - 1);
}

/** Return the block number (address >> 6) of @p a. */
constexpr Addr
blockNumber(Addr a)
{
    return a >> blockShift;
}

/** Return the 4KB page number of @p a. */
constexpr Addr
pageNumber(Addr a)
{
    return a >> pageShift;
}

/** Return the page-aligned address containing @p a. */
constexpr Addr
pageAlign(Addr a)
{
    return a & ~(pageSize - 1);
}

/**
 * Block offset of @p a within a spatial region of @p region_size bytes.
 * For the default 4KB region this is the 6-bit offset (0..63) the paper
 * calls simply "offset".
 */
constexpr uint32_t
regionOffset(Addr a, uint64_t region_size = pageSize)
{
    return static_cast<uint32_t>((a & (region_size - 1)) >> blockShift);
}

/** Region number of @p a for a region of @p region_size bytes. */
constexpr Addr
regionNumber(Addr a, uint64_t region_size = pageSize)
{
    Addr mask = region_size - 1;
    return (a & ~mask) / region_size;
}

/** Base byte address of the region containing @p a. */
constexpr Addr
regionBase(Addr a, uint64_t region_size = pageSize)
{
    return a & ~(region_size - 1);
}

/** Number of 64B blocks in a region of @p region_size bytes. */
constexpr uint32_t
blocksPerRegion(uint64_t region_size)
{
    return static_cast<uint32_t>(region_size / blockSize);
}

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * True iff @p entries split across @p ways gives a mask-indexable
 * table: ways >= 1, an even split, and a power-of-two set count.
 * Shared by every structure that partitions entries into LRU sets
 * (the prefetch buffer and its per-scheme configs).
 */
constexpr bool
isValidSetSplit(uint64_t entries, uint64_t ways)
{
    return ways >= 1 && entries >= ways && entries % ways == 0
           && isPowerOfTwo(entries / ways);
}

/** Integer log2 for power-of-two values. */
constexpr uint32_t
floorLog2(uint64_t v)
{
    uint32_t l = 0;
    while (v > 1) {
        v >>= 1;
        ++l;
    }
    return l;
}

/**
 * Mix a 64-bit value into a well-distributed hash (splitmix64 finalizer).
 * Used for table indexing and the deterministic page mapping.
 */
constexpr uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Fold a PC into @p bits bits, as the paper's "hashed PC" fields do. */
constexpr uint64_t
hashPC(PC pc, uint32_t bits)
{
    return mix64(pc) & ((1ULL << bits) - 1);
}

/** Access type carried by memory requests throughout the hierarchy. */
enum class AccessType : uint8_t
{
    Load,     ///< demand load
    Rfo,      ///< store / read-for-ownership
    Prefetch, ///< prefetcher-generated request
    Writeback ///< dirty eviction travelling down
};

} // namespace gaze
