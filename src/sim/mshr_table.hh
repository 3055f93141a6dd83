/**
 * @file
 * Fixed-capacity, open-addressed hash table for the cache MSHRs (and
 * other bounded addr-keyed hot-path maps, e.g. SPP-PPF's in-flight
 * prefetch records).
 *
 * The previous std::unordered_map allocated a node per miss and chased
 * bucket pointers on every lookup — on the per-access hot path, where
 * occupancy is bounded by the MSHR count anyway. This table stores
 * everything in three flat arrays sized at construction (slot count =
 * 2x capacity rounded to a power of two, so load factor never exceeds
 * 0.5), probes linearly, and deletes by backward-shift compaction —
 * tombstone-free, so probe chains never rot over a long campaign.
 *
 * Iteration is by *insertion order* (an intrusive doubly-linked list
 * over slot indices), which makes retry precedence under congestion a
 * deterministic FIFO instead of whatever bucket order the standard
 * library produced. Steady state allocates nothing.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace gaze
{

/** Flat Addr -> EntryT map with a hard capacity and FIFO iteration. */
template <typename EntryT>
class MshrTable
{
  public:
    explicit MshrTable(uint32_t capacity_limit)
        : capLimit(capacity_limit)
    {
        GAZE_ASSERT(capLimit >= 1, "table needs at least one MSHR slot");
        size_t slots = 8;
        while (slots < size_t(capLimit) * 2)
            slots <<= 1;
        keys.assign(slots, 0);
        entries.resize(slots);
        used.assign(slots, 0);
        orderNext.assign(slots, -1);
        orderPrev.assign(slots, -1);
        shift = 64;
        for (size_t s = slots; s > 1; s >>= 1)
            --shift;
    }

    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    uint32_t capacity() const { return capLimit; }
    bool full() const { return count >= capLimit; }

    EntryT *
    find(Addr key)
    {
        size_t i = findSlot(key);
        return i != kNoSlot ? &entries[i] : nullptr;
    }

    const EntryT *
    find(Addr key) const
    {
        size_t i = const_cast<MshrTable *>(this)->findSlot(key);
        return i != kNoSlot ? &entries[i] : nullptr;
    }

    /**
     * Insert @p key (must be absent, table must not be full) and
     * return its default-initialized payload slot.
     */
    EntryT &
    insert(Addr key)
    {
        GAZE_ASSERT(!full(), "insert into a full MSHR table");
        size_t i = home(key);
        while (used[i]) {
            GAZE_ASSERT(keys[i] != key, "duplicate MSHR insert");
            i = (i + 1) & mask();
        }
        keys[i] = key;
        entries[i] = EntryT{};
        used[i] = 1;
        linkTail(i);
        ++count;
        return entries[i];
    }

    /** Remove @p key; returns false when it was not present. */
    bool
    erase(Addr key)
    {
        size_t i = findSlot(key);
        if (i == kNoSlot)
            return false;
        unlink(i);
        --count;
        // Backward-shift compaction: pull every displaced follower of
        // the probe chain into the hole so lookups never need
        // tombstones. Moved slots drag their order links along.
        size_t j = i;
        while (true) {
            j = (j + 1) & mask();
            if (!used[j])
                break;
            size_t k = home(keys[j]);
            if (((j - k) & mask()) >= ((j - i) & mask())) {
                moveSlot(j, i);
                i = j;
            }
        }
        used[i] = 0; // insert() re-initializes the payload
        return true;
    }

    /**
     * Visit entries oldest-insertion-first as fn(Addr, EntryT&).
     * A fn returning bool stops the walk on false. Payload mutation is
     * allowed; insert/erase during the walk is not.
     */
    template <typename Fn>
    void
    forEachInOrder(Fn &&fn)
    {
        for (int32_t i = orderHead; i >= 0; i = orderNext[i]) {
            if constexpr (std::is_void_v<decltype(fn(
                              std::declval<Addr>(),
                              std::declval<EntryT &>()))>) {
                fn(keys[i], entries[i]);
            } else {
                if (!fn(keys[i], entries[i]))
                    return;
            }
        }
    }

  private:
    static constexpr size_t kNoSlot = ~size_t(0);

    size_t mask() const { return keys.size() - 1; }

    size_t
    home(Addr key) const
    {
        return size_t((uint64_t(key) * 0x9E3779B97F4A7C15ull) >> shift);
    }

    size_t
    findSlot(Addr key)
    {
        size_t i = home(key);
        while (used[i]) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask();
        }
        return kNoSlot;
    }

    void
    linkTail(size_t i)
    {
        int32_t n = static_cast<int32_t>(i);
        orderPrev[i] = orderTail;
        orderNext[i] = -1;
        if (orderTail >= 0)
            orderNext[orderTail] = n;
        else
            orderHead = n;
        orderTail = n;
    }

    void
    unlink(size_t i)
    {
        if (orderPrev[i] >= 0)
            orderNext[orderPrev[i]] = orderNext[i];
        else
            orderHead = orderNext[i];
        if (orderNext[i] >= 0)
            orderPrev[orderNext[i]] = orderPrev[i];
        else
            orderTail = orderPrev[i];
    }

    void
    moveSlot(size_t from, size_t to)
    {
        keys[to] = keys[from];
        entries[to] = std::move(entries[from]);
        orderNext[to] = orderNext[from];
        orderPrev[to] = orderPrev[from];
        int32_t n = static_cast<int32_t>(to);
        if (orderPrev[to] >= 0)
            orderNext[orderPrev[to]] = n;
        else
            orderHead = n;
        if (orderNext[to] >= 0)
            orderPrev[orderNext[to]] = n;
        else
            orderTail = n;
    }

    uint32_t capLimit;
    int shift;
    size_t count = 0;
    int32_t orderHead = -1;
    int32_t orderTail = -1;

    std::vector<Addr> keys;
    std::vector<EntryT> entries;
    std::vector<uint8_t> used;
    std::vector<int32_t> orderNext;
    std::vector<int32_t> orderPrev;
};

} // namespace gaze
