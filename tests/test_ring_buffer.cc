/**
 * @file
 * RingBuffer tests: FIFO order across the wrap point, growth while
 * wrapped, order-preserving middle erase, power-of-two capacity, and
 * the bounded use every simulator queue relies on: a queue that
 * refuses at its capacity never grows, so a reference to its head
 * stays valid while the tail is pushed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/rng.hh"

namespace gaze
{
namespace
{

/** The ring's elements, front to back. */
std::vector<int>
contents(const RingBuffer<int> &ring)
{
    std::vector<int> out;
    for (size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[i]);
    return out;
}

TEST(RingBuffer, FifoOrderAcrossTheWrapPoint)
{
    RingBuffer<int> ring(8);
    // Move the head to slot 5, so the next pushes wrap past slot 7.
    for (int v = 0; v < 5; ++v)
        ring.push_back(v);
    for (int v = 0; v < 5; ++v) {
        ASSERT_EQ(ring.front(), v);
        ring.pop_front();
    }
    for (int v = 100; v < 108; ++v)
        ring.push_back(v);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.back(), 107);
    EXPECT_EQ(contents(ring), (std::vector<int>{100, 101, 102, 103, 104,
                                                105, 106, 107}));
    for (int v = 100; v < 108; ++v) {
        ASSERT_EQ(ring.front(), v);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, GrowthWhileWrappedKeepsOrderAndDoublesCapacity)
{
    RingBuffer<int> ring(4);
    ring.push_back(0);
    ring.push_back(1);
    ring.pop_front();
    ring.pop_front();
    // Head at slot 2; four pushes fill the ring wrapped.
    for (int v = 10; v < 14; ++v)
        ring.push_back(v);
    ASSERT_EQ(ring.capacity(), 4u);
    ring.push_back(14);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12, 13, 14}));

    // Index with the grown capacity: pop and push across the new
    // wrap point, checking order against a plain FIFO model.
    std::vector<int> model = contents(ring);
    size_t model_head = 0;
    for (int v = 15; v < 40; ++v) {
        if (ring.size() == ring.capacity()) {
            ASSERT_EQ(ring.front(), model[model_head++]);
            ring.pop_front();
        }
        ring.push_back(v);
        model.push_back(v);
        ASSERT_EQ(contents(ring),
                  std::vector<int>(model.begin() + long(model_head),
                                   model.end()))
            << "after pushing " << v;
    }
    EXPECT_EQ(ring.capacity(), 8u);
}

TEST(RingBuffer, EraseKeepsOrderOnEitherSideOfTheMidpoint)
{
    // Every index of a wrapped ring, each erase on a fresh copy: the
    // ring shifts whichever side of the hole is shorter.
    for (size_t victim = 0; victim < 7; ++victim) {
        SCOPED_TRACE(victim);
        RingBuffer<int> ring(8);
        for (int v = 0; v < 6; ++v)
            ring.push_back(-1);
        for (int v = 0; v < 6; ++v)
            ring.pop_front();
        std::vector<int> model;
        for (int v = 0; v < 7; ++v) {
            ring.push_back(v);
            model.push_back(v);
        }
        ring.erase(victim);
        model.erase(model.begin() + long(victim));
        EXPECT_EQ(contents(ring), model);
        // FIFO use goes on from the shifted state.
        ring.push_back(7);
        ring.push_back(8);
        model.push_back(7);
        model.push_back(8);
        EXPECT_EQ(contents(ring), model);
    }
}

TEST(RingBuffer, CapacityRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(RingBuffer<int>(0).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(1).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(3).capacity(), 4u);
    EXPECT_EQ(RingBuffer<int>(8).capacity(), 8u);
    EXPECT_EQ(RingBuffer<int>(9).capacity(), 16u);
    // The default core's ROB (Table II: 352 entries).
    EXPECT_EQ(RingBuffer<int>(352).capacity(), 512u);
}

TEST(RingBuffer, BoundedLoadAtCapacityNeverGrows)
{
    // A queue that refuses at its bound, as the cache read and
    // prefetch queues do: pushes up to the bound never reallocate, so
    // a reference to the head survives them.
    const size_t bound = 6;
    RingBuffer<int> ring(bound);
    const size_t cap = ring.capacity();
    Rng rng(0x7a11);
    int next = 0;
    int expect = 0;
    for (int step = 0; step < 20000; ++step) {
        if (!ring.empty() && rng.chance(0.5)) {
            const int *head = &ring.front();
            int head_value = *head;
            while (ring.size() < bound)
                ring.push_back(next++);
            ASSERT_EQ(&ring.front(), head) << "step " << step;
            ASSERT_EQ(ring.front(), head_value) << "step " << step;
        } else if (ring.size() < bound) {
            ring.push_back(next++);
        }
        if (!ring.empty() && rng.chance(0.6)) {
            ASSERT_EQ(ring.front(), expect++) << "step " << step;
            ring.pop_front();
        }
        ASSERT_EQ(ring.capacity(), cap) << "step " << step;
    }
}

} // namespace
} // namespace gaze
