/**
 * @file
 * Generic set-associative, LRU-replaced lookup table.
 *
 * Every metadata structure in the paper is a small set-associative table
 * with LRU replacement: Gaze's FT (8-way x 64), AT (8-way x 64),
 * PHT (4-way x 64 sets), PB (8-way x 32), DPCT (fully associative x 8),
 * and the equivalents inside SMS/Bingo/DSPatch/PMP. This template
 * implements that shape once, with eviction reporting so callers can run
 * "learning on eviction" logic (e.g. the AT sends its footprint to the
 * PHM when an entry is replaced).
 *
 * Layout: split arrays, not an array of slot structs. A set scan reads
 * only the tag array (8 ways x 8B = one cache line) plus the stamp
 * array; payloads — which can be fat (the PB's pattern vectors) — are
 * touched only on a hit. Validity is encoded in the stamp (0 =
 * invalid; live stamps start at 1), so the scan needs no third array.
 * acquire() additionally lets a caller claim the victim slot and
 * rebuild its payload *in place*, which is what makes the prefetch
 * buffer's install path allocation-free (pattern vectors are recycled
 * with their heap capacity intact).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace gaze
{

/**
 * Set-associative table of EntryT payloads addressed by (set, tag).
 *
 * The caller owns the set-index and tag derivation (tables in the paper
 * index by region number, trigger offset, hashed PC, ...). A table with
 * one set is fully associative.
 */
template <typename EntryT>
class LruTable
{
  public:
    /** An evicted (tag, payload) pair reported from insert(). */
    struct Evicted
    {
        uint64_t tag;
        EntryT data;
    };

    /**
     * Result of acquire(): the payload slot for (set, tag). On a miss
     * the slot is the claimed victim and still holds the *previous*
     * payload — the caller must fully reinitialize it (reusing any
     * heap capacity it carries).
     */
    struct Acquired
    {
        EntryT *data;
        bool hit;
        bool evicted;        ///< the claimed way held a valid entry
        uint64_t evictedTag; ///< meaningful only when evicted
    };

    /**
     * @param num_sets number of sets (a power of two: every caller
     *        derives the set index with `key & (sets() - 1)`, which
     *        silently aliases or skips sets for other counts)
     * @param num_ways associativity (>=1)
     */
    LruTable(size_t num_sets, size_t num_ways)
        : numSets(num_sets), numWays(num_ways),
          tags(num_sets * num_ways, 0), stamps(num_sets * num_ways, 0),
          payload(num_sets * num_ways), setStamp(num_sets, 0)
    {
        GAZE_ASSERT(isPowerOfTwo(num_sets),
                    "set count must be a power of two, got ", num_sets);
        GAZE_ASSERT(num_ways >= 1, "bad geometry");
    }

    /** Total capacity in entries. */
    size_t capacity() const { return numSets * numWays; }

    size_t sets() const { return numSets; }
    size_t ways() const { return numWays; }

    /**
     * Look up (set, tag); returns the payload or nullptr.
     * @param touch refresh the entry's LRU position on hit (default).
     */
    EntryT *
    find(uint64_t set, uint64_t tag, bool touch = true)
    {
        size_t i = findSlot(set, tag);
        if (i == kNoSlot)
            return nullptr;
        if (touch)
            stamps[i] = nextStamp(set);
        return &payload[i];
    }

    /** Const lookup that never touches LRU state. */
    const EntryT *
    peek(uint64_t set, uint64_t tag) const
    {
        size_t i = const_cast<LruTable *>(this)->findSlot(set, tag);
        return i == kNoSlot ? nullptr : &payload[i];
    }

    /** True iff (set, tag) is present. */
    bool contains(uint64_t set, uint64_t tag) const
    {
        return peek(set, tag) != nullptr;
    }

    /**
     * Claim the slot for (set, tag) without constructing a payload: a
     * hit touches LRU and returns the existing entry; a miss claims
     * the LRU victim (identical victim choice to insert()), retags and
     * touches it, and reports what it evicted. The returned payload is
     * the victim's old contents, for in-place reinitialization.
     */
    Acquired
    acquire(uint64_t set, uint64_t tag)
    {
        size_t i = findSlot(set, tag);
        if (i != kNoSlot) {
            stamps[i] = nextStamp(set);
            return Acquired{&payload[i], true, false, 0};
        }
        size_t v = victimSlot(set);
        Acquired out{&payload[v], false, stamps[v] != 0, tags[v]};
        tags[v] = tag;
        stamps[v] = nextStamp(set);
        return out;
    }

    /**
     * Insert (or overwrite) the payload for (set, tag), refreshing LRU.
     * When the set is full and the tag is new, the LRU way is replaced
     * and its contents returned so the caller can learn from it.
     */
    std::optional<Evicted>
    insert(uint64_t set, uint64_t tag, EntryT data)
    {
        size_t i = findSlot(set, tag);
        if (i != kNoSlot) {
            payload[i] = std::move(data);
            stamps[i] = nextStamp(set);
            return std::nullopt;
        }

        size_t v = victimSlot(set);
        std::optional<Evicted> out;
        if (stamps[v] != 0)
            out = Evicted{tags[v], std::move(payload[v])};
        tags[v] = tag;
        payload[v] = std::move(data);
        stamps[v] = nextStamp(set);
        return out;
    }

    /**
     * Remove (set, tag) and return its payload, if present.
     * Used when a region is deactivated explicitly (e.g. a tracked
     * block is evicted from the cache, ending the AT generation).
     */
    std::optional<EntryT>
    erase(uint64_t set, uint64_t tag)
    {
        size_t i = findSlot(set, tag);
        if (i == kNoSlot)
            return std::nullopt;
        stamps[i] = 0;
        return std::move(payload[i]);
    }

    /** Drop every entry. */
    void
    clear()
    {
        for (auto &s : stamps)
            s = 0;
    }

    /** Number of valid entries (O(capacity)). */
    size_t
    occupancy() const
    {
        size_t n = 0;
        for (auto s : stamps)
            n += s != 0;
        return n;
    }

    /**
     * Visit every valid entry as fn(set, tag, EntryT&). Iteration order
     * is unspecified; mutation of payloads is allowed.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t set = 0; set < numSets; ++set) {
            for (size_t w = 0; w < numWays; ++w) {
                size_t i = set * numWays + w;
                if (stamps[i] != 0)
                    fn(set, tags[i], payload[i]);
            }
        }
    }

    /**
     * Visit @p set's valid entries as fn(tag, EntryT&), in way order.
     * Callers that only care about one set use this instead of a
     * filtered forEach(), which would walk the whole table.
     */
    template <typename Fn>
    void
    forEachInSet(uint64_t set, Fn &&fn)
    {
        checkSet(set);
        size_t base = set * numWays;
        for (size_t i = base; i < base + numWays; ++i) {
            if (stamps[i] != 0)
                fn(tags[i], payload[i]);
        }
    }

    /**
     * Return the tag that LRU would evict next from @p set, if the set
     * is full; nullopt while there is still an invalid way.
     */
    std::optional<uint64_t>
    victimTag(uint64_t set) const
    {
        checkSet(set);
        size_t base = set * numWays;
        size_t best = kNoSlot;
        for (size_t w = 0; w < numWays; ++w) {
            size_t i = base + w;
            if (stamps[i] == 0)
                return std::nullopt;
            if (best == kNoSlot || stamps[i] < stamps[best])
                best = i;
        }
        return tags[best];
    }

  private:
    static constexpr size_t kNoSlot = ~size_t(0);

    void
    checkSet(uint64_t set) const
    {
        GAZE_ASSERT(set < numSets, "set ", set, " out of range ", numSets);
    }

    size_t
    findSlot(uint64_t set, uint64_t tag)
    {
        checkSet(set);
        size_t base = set * numWays;
        for (size_t w = 0; w < numWays; ++w) {
            size_t i = base + w;
            if (tags[i] == tag && stamps[i] != 0)
                return i;
        }
        return kNoSlot;
    }

    /**
     * The way insert()/acquire() claim: stamp 0 (invalid) sorts below
     * every live stamp (which start at 1), so a single min-stamp,
     * first-wins scan lands on the first free way when one exists and
     * on true LRU otherwise.
     */
    size_t
    victimSlot(uint64_t set) const
    {
        size_t base = set * numWays;
        size_t best = base;
        for (size_t w = 1; w < numWays; ++w) {
            if (stamps[base + w] < stamps[best])
                best = base + w;
        }
        return best;
    }

    uint64_t nextStamp(uint64_t set) { return ++setStamp[set]; }

    size_t numSets;
    size_t numWays;
    std::vector<uint64_t> tags;
    std::vector<uint64_t> stamps;
    std::vector<EntryT> payload;
    std::vector<uint64_t> setStamp;
};

} // namespace gaze
