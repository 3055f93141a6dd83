/**
 * @file
 * Cache model tests against a scripted lower level: hit/miss timing,
 * MSHR merging and back-pressure, writeback behaviour, prefetch fill
 * targeting, and the useful/useless/late accounting the paper's
 * metrics depend on.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::FakeMemory;
using test::FakeReceiver;

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : mem(&clock, /*latency=*/50)
    {
        CacheParams p;
        p.name = "L1-test";
        p.level = levelL1;
        p.sets = 16;
        p.ways = 2;
        p.latency = 5;
        p.mshrs = 4;
        p.rqSize = 8;
        p.pqSize = 4;
        cache = std::make_unique<Cache>(p, &mem, &clock);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            cache->tick();
            mem.tick();
            ++clock;
        }
    }

    Request
    demand(Addr a, FillReceiver *recv, uint64_t token = 0,
           AccessType t = AccessType::Load)
    {
        Request r;
        r.paddr = a;
        r.vaddr = a;
        r.pc = 0x400000;
        r.type = t;
        r.fillLevel = levelL1;
        r.requester = recv;
        r.token = token;
        r.issueCycle = clock;
        return r;
    }

    Cycle clock = 0;
    FakeMemory mem;
    std::unique_ptr<Cache> cache;
    FakeReceiver rx;
};

TEST_F(CacheTest, MissGoesToLowerAndFills)
{
    ASSERT_TRUE(cache->sendRequest(demand(0x1000, &rx)));
    run(60);
    ASSERT_EQ(rx.fills.size(), 1u);
    EXPECT_TRUE(cache->present(0x1000));
    EXPECT_EQ(cache->stats().loadMiss, 1u);
    ASSERT_FALSE(mem.received.empty());
    EXPECT_EQ(mem.received[0].paddr, 0x1000u);
}

TEST_F(CacheTest, HitRespondsAfterLatencyWithoutLowerTraffic)
{
    cache->sendRequest(demand(0x1000, &rx));
    run(60);
    size_t lower_before = mem.received.size();
    rx.fills.clear();

    Cycle start = clock;
    cache->sendRequest(demand(0x1000, &rx));
    run(10);
    ASSERT_EQ(rx.fills.size(), 1u);
    EXPECT_EQ(mem.received.size(), lower_before);
    EXPECT_EQ(cache->stats().loadHit, 1u);
    // Response must take at least the configured access latency.
    (void)start;
}

TEST_F(CacheTest, SameBlockMissesMergeInMshr)
{
    cache->sendRequest(demand(0x2000, &rx, 1));
    cache->sendRequest(demand(0x2030, &rx, 2)); // same 64B block
    run(2);
    EXPECT_EQ(cache->mshrOccupancy(), 1u);
    EXPECT_EQ(cache->stats().mshrMerge, 1u);
    run(70);
    EXPECT_EQ(rx.fills.size(), 2u); // both waiters woken
}

TEST_F(CacheTest, MshrFullStallsReads)
{
    // 4 MSHRs; the 5th distinct-block miss must stall, not be lost.
    for (int i = 0; i < 5; ++i)
        cache->sendRequest(demand(0x10000 + i * 64, &rx, i));
    run(3);
    EXPECT_EQ(cache->mshrOccupancy(), 4u);
    EXPECT_GT(cache->stats().mshrFullStall, 0u);
    run(120);
    EXPECT_EQ(rx.fills.size(), 5u); // stalled one completed later
}

TEST_F(CacheTest, RfoMarksDirtyAndWritesBack)
{
    cache->sendRequest(demand(0x3000, &rx, 0, AccessType::Rfo));
    run(60);
    EXPECT_TRUE(cache->present(0x3000));

    // Evict it: the set has 2 ways; fill two more blocks mapping to
    // the same set (sets=16 -> stride 16*64 = 0x400).
    cache->sendRequest(demand(0x3000 + 0x400, &rx, 1));
    cache->sendRequest(demand(0x3000 + 0x800, &rx, 2));
    run(120);
    EXPECT_FALSE(cache->present(0x3000));
    EXPECT_EQ(mem.writebacks, 1u);
    EXPECT_EQ(cache->stats().writebacksSent, 1u);
}

TEST_F(CacheTest, CleanEvictionHasNoWriteback)
{
    cache->sendRequest(demand(0x3000, &rx, 0));
    run(60);
    cache->sendRequest(demand(0x3000 + 0x400, &rx, 1));
    cache->sendRequest(demand(0x3000 + 0x800, &rx, 2));
    run(120);
    EXPECT_FALSE(cache->present(0x3000));
    EXPECT_EQ(mem.writebacks, 0u);
}

TEST_F(CacheTest, WritebackMissAllocatesDirectly)
{
    Request wb;
    wb.paddr = 0x4000;
    wb.type = AccessType::Writeback;
    wb.fillLevel = levelL1;
    ASSERT_TRUE(cache->sendRequest(wb));
    run(3);
    EXPECT_TRUE(cache->present(0x4000));
    EXPECT_EQ(cache->stats().wbMiss, 1u);
    // No fetch from below: the line arrived complete.
    EXPECT_TRUE(mem.received.empty());
}

TEST_F(CacheTest, PrefetchFillsWithPrefetchBit)
{
    ASSERT_TRUE(cache->issuePrefetch(0x5000, levelL1, /*virt=*/false, 0));
    run(60);
    EXPECT_TRUE(cache->present(0x5000));
    EXPECT_EQ(cache->stats().pfFilled, 1u);
    EXPECT_EQ(cache->stats().pfIssued, 1u);
}

TEST_F(CacheTest, PrefetchedBlockDemandHitCountsUseful)
{
    cache->issuePrefetch(0x5000, levelL1, false, 0);
    run(60);
    cache->sendRequest(demand(0x5000, &rx));
    run(10);
    EXPECT_EQ(cache->stats().pfUseful, 1u);
    // A second hit must not double count.
    cache->sendRequest(demand(0x5000, &rx));
    run(10);
    EXPECT_EQ(cache->stats().pfUseful, 1u);
}

TEST_F(CacheTest, UnusedPrefetchEvictionCountsUseless)
{
    cache->issuePrefetch(0x5000, levelL1, false, 0);
    run(60);
    cache->sendRequest(demand(0x5000 + 0x400, &rx, 1));
    cache->sendRequest(demand(0x5000 + 0x800, &rx, 2));
    run(120);
    EXPECT_FALSE(cache->present(0x5000));
    EXPECT_EQ(cache->stats().pfUseless, 1u);
    EXPECT_EQ(cache->stats().pfUseful, 0u);
}

TEST_F(CacheTest, DemandOnInflightPrefetchCountsLate)
{
    cache->issuePrefetch(0x6000, levelL1, false, 0);
    run(5); // prefetch in flight, not yet filled
    cache->sendRequest(demand(0x6000, &rx));
    run(60);
    EXPECT_EQ(cache->stats().pfLate, 1u);
    ASSERT_EQ(rx.fills.size(), 1u);
    // Late-converted fills are not marked as prefetch fills...
    EXPECT_EQ(cache->stats().pfFilled, 0u);
    // ...and a subsequent hit is not pfUseful.
    cache->sendRequest(demand(0x6000, &rx));
    run(10);
    EXPECT_EQ(cache->stats().pfUseful, 0u);
}

TEST_F(CacheTest, RedundantPrefetchDroppedOnHit)
{
    cache->sendRequest(demand(0x7000, &rx));
    run(60);
    cache->issuePrefetch(0x7000, levelL1, false, 0);
    run(5);
    EXPECT_EQ(cache->stats().pfDroppedHit, 1u);
    EXPECT_EQ(cache->stats().pfFilled, 0u);
}

TEST_F(CacheTest, PrefetchQueueFullDrops)
{
    // pqSize = 4: the 5th issue in one cycle must be rejected.
    for (int i = 0; i < 5; ++i)
        cache->issuePrefetch(0x8000 + i * 64, levelL1, false, 0);
    EXPECT_EQ(cache->stats().pfDroppedFull, 1u);
    EXPECT_EQ(cache->stats().pfIssued, 4u);
}

TEST_F(CacheTest, LowerLevelTargetedPrefetchForwardsDown)
{
    // fillLevel = L2 at an L1 cache: forwarded, never filled here.
    cache->issuePrefetch(0x9000, levelL2, false, 0);
    run(60);
    EXPECT_FALSE(cache->present(0x9000));
    ASSERT_FALSE(mem.received.empty());
    EXPECT_EQ(mem.received[0].type, AccessType::Prefetch);
    EXPECT_EQ(mem.received[0].fillLevel, uint32_t(levelL2));
}

TEST_F(CacheTest, ReadQueueBackpressure)
{
    // rqSize = 8: the 9th outstanding demand is rejected.
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(cache->sendRequest(demand(0x20000 + i * 64, &rx, i)));
    EXPECT_FALSE(cache->sendRequest(demand(0x30000, &rx, 99)));
}

TEST_F(CacheTest, RejectedLowerRequestIsRetried)
{
    mem.rejectReads = true;
    cache->sendRequest(demand(0xa000, &rx));
    run(10);
    EXPECT_TRUE(rx.fills.empty());
    mem.rejectReads = false;
    run(70);
    EXPECT_EQ(rx.fills.size(), 1u); // MSHR retried the downstream send
}

TEST_F(CacheTest, DemandMissLatencyAccounted)
{
    cache->sendRequest(demand(0xb000, &rx));
    run(80);
    EXPECT_EQ(cache->stats().demandMissLatencyCnt, 1u);
    // Lower latency is 50; plus queueing it must be at least that.
    EXPECT_GE(cache->stats().avgDemandMissLatency(), 50.0);
}

/** Tokens of @p fills, in delivery order. */
std::vector<uint64_t>
tokensOf(const std::vector<Request> &fills)
{
    std::vector<uint64_t> out;
    for (const Request &r : fills)
        out.push_back(r.token);
    return out;
}

TEST_F(CacheTest, ResponsesArriveInReadyOrderAcrossHitsAndFills)
{
    // Warm block A so a later read of it is a tag hit.
    cache->sendRequest(demand(0xa000, &rx, 1));
    run(60);
    rx.fills.clear();

    // A miss on B at c0: the lower level answers at c0 + 50 and the
    // fill forward is ready at c0 + 51.
    Cycle c0 = clock;
    cache->sendRequest(demand(0xb040, &rx, 2));
    run(48);
    // The hit on A at c0 + 48 is scheduled first but ready at c0 + 53.
    cache->sendRequest(demand(0xa000, &rx, 3));
    run(2);
    cache->tick();
    mem.tick(); // the fill of B arrives at c0 + 50
    EXPECT_TRUE(rx.fills.empty());
    EXPECT_EQ(cache->nextWakeCycle(), c0 + 51); // the fill's head
    ++clock;

    run(1);
    EXPECT_EQ(tokensOf(rx.fills), (std::vector<uint64_t>{2}));
    EXPECT_EQ(cache->nextWakeCycle(), c0 + 53); // the hit's head
    run(2);
    EXPECT_EQ(tokensOf(rx.fills), (std::vector<uint64_t>{2, 3}));
    EXPECT_EQ(cache->nextWakeCycle(), kNeverWake);
}

TEST_F(CacheTest, SameCycleResponsesArriveInScheduleOrder)
{
    // A 1-cycle hit latency makes a tag hit and a fill forward
    // scheduled on the same cycle ready on the same next cycle. The
    // fill is scheduled first when it arrives before the cache ticks.
    CacheParams p = cache->params();
    p.latency = 1;
    for (bool fill_first : {false, true}) {
        SCOPED_TRACE(fill_first);
        Cycle clk = 0;
        FakeMemory lower(&clk, 50);
        Cache c(p, &lower, &clk);
        FakeReceiver out;
        auto step = [&](bool lower_first) {
            if (lower_first)
                lower.tick();
            c.tick();
            if (!lower_first)
                lower.tick();
            ++clk;
        };

        c.sendRequest(demand(0xa000, &out, 1));
        while (clk < 60)
            step(false);
        out.fills.clear();

        Cycle c0 = clk;
        c.sendRequest(demand(0xb040, &out, 2));
        while (clk < c0 + 50)
            step(false);
        c.sendRequest(demand(0xa000, &out, 3));
        step(fill_first); // hit on A and fill of B, both ready c0 + 51
        EXPECT_TRUE(out.fills.empty());
        EXPECT_EQ(c.nextWakeCycle(), c0 + 51);
        step(false);
        EXPECT_EQ(tokensOf(out.fills),
                  fill_first ? (std::vector<uint64_t>{2, 3})
                             : (std::vector<uint64_t>{3, 2}));
    }
}

/**
 * A read-queue head stalled on a full MSHR file can only repeat its
 * refusal until a fill frees an MSHR, so the cache sleeps: its gate
 * stays closed from the cycle after the first refusal through the
 * fill's cycle, and mshrFullStall still counts one stall per cycle
 * the head waited, as a cache ticked every cycle would.
 */
TEST_F(CacheTest, StalledReadHeadSleepsUntilTheFillAndCountsEveryCycle)
{
    // 4 MSHRs, 2 tag lookups a cycle: misses 0-3 allocate at cycles 0
    // and 1, miss 4 is refused from cycle 2 until the first fill (sent
    // at cycle 0, returned at cycle 50) frees an MSHR.
    for (int i = 0; i < 5; ++i)
        cache->sendRequest(demand(0x10000 + i * 64, &rx, i));
    constexpr Cycle kFirstStall = 2;
    constexpr Cycle kFill = 50;
    uint64_t ticks = 0;
    while (clock <= kFill) {
        bool open = cache->wakeGate().due(clock);
        if (clock > kFirstStall)
            EXPECT_FALSE(open) << "cycle " << clock;
        ticks += open;
        cache->tick();
        mem.tick();
        ++clock;
        if (clock == 10) {
            // Read mid-sleep: the stalls of cycles 2..9.
            EXPECT_EQ(cache->stats().mshrFullStall, 10 - kFirstStall);
        }
    }
    EXPECT_EQ(ticks, kFirstStall + 1);
    EXPECT_TRUE(cache->wakeGate().due(clock)); // the fill woke it
    run(1);
    EXPECT_EQ(cache->rqOccupancy(), 0u); // miss 4 took a freed MSHR
    EXPECT_EQ(cache->stats().mshrFullStall, kFill - kFirstStall + 1);
}

/**
 * resetStats() in the middle of such a sleep counts none of the
 * stall cycles before it, and every one after it.
 */
TEST_F(CacheTest, ResetStatsMidSleepDropsOnlyEarlierStalls)
{
    for (int i = 0; i < 5; ++i)
        cache->sendRequest(demand(0x10000 + i * 64, &rx, i));
    run(20);
    ASSERT_FALSE(cache->wakeGate().due(clock)); // asleep since cycle 3
    cache->resetStats();
    EXPECT_EQ(cache->stats().mshrFullStall, 0u);
    run(40); // through cycle 59: the head waited through cycle 50
    EXPECT_EQ(cache->stats().mshrFullStall, 50u - 20u + 1u);
}

TEST_F(CacheTest, SetsForComputesGeometry)
{
    EXPECT_EQ(CacheParams::setsFor(48 * 1024, 12), 64u);
    EXPECT_EQ(CacheParams::setsFor(512 * 1024, 8), 1024u);
    EXPECT_EQ(CacheParams::setsFor(2 * 1024 * 1024, 16), 2048u);
}

} // namespace
} // namespace gaze
