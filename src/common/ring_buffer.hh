/**
 * @file
 * Contiguous power-of-two ring buffer used for the simulator's hot
 * FIFO queues: the cache read/write/prefetch queues and response
 * FIFOs, the core's ROB and pending-load list, the DRAM channel
 * queues, the prefetch buffer's issue queue and Berti's history.
 *
 * std::deque allocates its map-of-chunks on first use and touches two
 * indirections per element access; on the per-access hot path those
 * queues hold a handful of small PODs and are pushed/popped millions
 * of times per simulated second. This ring keeps the elements in one
 * flat allocation, grows by doubling (amortized over the whole run —
 * steady state never allocates), and supports the one non-FIFO
 * operation the DRAM scheduler needs: order-preserving erase of a
 * middle element (FR-FCFS picks row hits out of queue order).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace gaze
{

/** Flat FIFO ring with order-preserving middle erase. */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(size_t initial_capacity = 8)
    {
        size_t cap = 1;
        while (cap < initial_capacity)
            cap <<= 1;
        buf.resize(cap);
        indexMask = cap - 1;
    }

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Slots before the next growth (tests/sizing). */
    size_t capacity() const { return buf.size(); }

    T &operator[](size_t i)
    {
        GAZE_ASSERT(i < count, "ring index ", i, " out of range ", count);
        return buf[(head + i) & mask()];
    }

    const T &operator[](size_t i) const
    {
        GAZE_ASSERT(i < count, "ring index ", i, " out of range ", count);
        return buf[(head + i) & mask()];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void
    push_back(const T &v)
    {
        reserveOneMore();
        buf[(head + count) & mask()] = v;
        ++count;
    }

    void
    push_back(T &&v)
    {
        reserveOneMore();
        buf[(head + count) & mask()] = std::move(v);
        ++count;
    }

    void
    pop_front()
    {
        GAZE_ASSERT(count > 0, "pop_front on empty ring");
        head = (head + 1) & mask();
        --count;
    }

    /**
     * Remove element @p i, preserving the relative order of everything
     * else (the FIFO age order FR-FCFS and the PQ dedup scan rely on).
     * Shifts whichever side is shorter.
     */
    void
    erase(size_t i)
    {
        GAZE_ASSERT(i < count, "ring erase ", i, " out of range ", count);
        if (i < count - i - 1) {
            for (size_t j = i; j > 0; --j)
                (*this)[j] = std::move((*this)[j - 1]);
            pop_front();
        } else {
            for (size_t j = i; j + 1 < count; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
            --count;
        }
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /**
     * buf.size() - 1, kept in a member: derived from the vector it
     * costs a pointer subtraction and a division by sizeof(T) on
     * every index, push and pop.
     */
    size_t mask() const { return indexMask; }

    void
    reserveOneMore()
    {
        if (count < buf.size())
            return;
        std::vector<T> bigger(buf.size() * 2);
        for (size_t i = 0; i < count; ++i)
            bigger[i] = std::move(buf[(head + i) & mask()]);
        buf.swap(bigger);
        indexMask = buf.size() - 1;
        head = 0;
    }

    std::vector<T> buf;
    size_t indexMask = 0;
    size_t head = 0;
    size_t count = 0;
};

} // namespace gaze
