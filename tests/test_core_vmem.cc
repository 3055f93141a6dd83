/**
 * @file
 * Tests for the OoO core model (retire width, load blocking, dependent
 * loads, SQ pressure, trace replay, front-end stalls) and functional
 * virtual memory.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/vmem.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::FakeMemory;

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : mem(&clock, /*latency=*/100), vm(34)
    {
    }

    void
    build(std::vector<TraceRecord> recs, CoreParams p = {})
    {
        trace = VectorTrace(std::move(recs));
        core = std::make_unique<Core>(p, 0, &mem, &vm, &clock);
        core->setTrace(&trace);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            core->tick();
            mem.tick();
            ++clock;
        }
    }

    Cycle clock = 0;
    FakeMemory mem;
    VirtualMemory vm;
    VectorTrace trace;
    std::unique_ptr<Core> core;
};

std::vector<TraceRecord>
nonMemTrace(size_t n)
{
    std::vector<TraceRecord> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back({0x1000 + 4 * i, 0, TraceOp::NonMem, 0});
    return v;
}

TEST_F(CoreTest, NonMemIpcApproachesWidth)
{
    build(nonMemTrace(4000));
    run(1100);
    // 4-wide: ~4000 instructions retire in ~1000 cycles (+ pipeline
    // fill).
    EXPECT_GE(core->retired(), 3900u);
}

TEST_F(CoreTest, LoadBlocksRetirementUntilFill)
{
    std::vector<TraceRecord> v;
    v.push_back({0x1000, 0x5000, TraceOp::Load, 0});
    auto tail = nonMemTrace(5000); // long enough to avoid replay
    v.insert(v.end(), tail.begin(), tail.end());
    build(std::move(v));
    run(50);
    // Memory latency is 100: nothing can retire yet (load at head).
    EXPECT_EQ(core->retired(), 0u);
    run(100);
    EXPECT_GT(core->retired(), 100u - 10);
    EXPECT_EQ(core->stats().loads, 1u);
}

TEST_F(CoreTest, IndependentLoadsOverlap)
{
    // 8 independent loads to distinct blocks: with latency 100 they
    // must overlap (MLP), finishing way before 8 * 100 cycles.
    std::vector<TraceRecord> v;
    for (int i = 0; i < 8; ++i)
        v.push_back({0x1000, Addr(0x10000 + i * 64), TraceOp::Load, 0});
    build(std::move(v));
    run(160);
    EXPECT_GE(core->retired(), 8u); // replay may add more
    EXPECT_GE(core->stats().loads, 8u);
}

TEST_F(CoreTest, DependentLoadsSerialize)
{
    std::vector<TraceRecord> v;
    for (int i = 0; i < 4; ++i)
        v.push_back({0x1000, Addr(0x20000 + i * 64),
                     TraceOp::DependentLoad, 0});
    build(std::move(v));
    run(250);
    // Serialized at ~100 cycles each: only ~2 can be done by 250.
    EXPECT_LE(core->retired(), 3u);
    run(250);
    EXPECT_EQ(core->retired(), 4u);
}

TEST_F(CoreTest, RobLimitsLookahead)
{
    CoreParams p;
    p.robSize = 8;
    // A long-latency load followed by many non-mems: only robSize-1
    // instructions can enter behind the blocked head.
    std::vector<TraceRecord> v;
    v.push_back({0x1000, 0x5000, TraceOp::Load, 0});
    auto tail = nonMemTrace(100);
    v.insert(v.end(), tail.begin(), tail.end());
    build(std::move(v), p);
    run(60);
    EXPECT_EQ(core->retired(), 0u);
    EXPECT_GT(core->stats().robFullCycles, 0u);
}

TEST_F(CoreTest, StoresRetireViaRfoAndOccupySq)
{
    std::vector<TraceRecord> v;
    v.push_back({0x1000, 0x7000, TraceOp::Store, 0});
    auto tail = nonMemTrace(2000);
    v.insert(v.end(), tail.begin(), tail.end());
    build(std::move(v));
    run(30);
    EXPECT_EQ(core->stats().stores, 1u);
    // The RFO went to memory.
    bool saw_rfo = false;
    for (const auto &r : mem.received)
        saw_rfo |= r.type == AccessType::Rfo;
    EXPECT_TRUE(saw_rfo);
}

TEST_F(CoreTest, TraceReplaysAtEnd)
{
    build(nonMemTrace(100));
    run(200);
    EXPECT_GT(core->retired(), 300u);
    EXPECT_GT(core->stats().traceReplays, 1u);
}

TEST_F(CoreTest, FrontendStallPausesDispatch)
{
    std::vector<TraceRecord> v;
    auto head = nonMemTrace(8);
    v.insert(v.end(), head.begin(), head.end());
    v.push_back({0, 0, TraceOp::Stall, 50});
    auto tail = nonMemTrace(8);
    v.insert(v.end(), tail.begin(), tail.end());
    build(std::move(v));
    run(20);
    uint64_t mid = core->retired();
    EXPECT_LE(mid, 9u); // second batch held back by the stall
    run(60);
    EXPECT_GT(core->stats().frontendStallCycles, 10u);
}

TEST_F(CoreTest, LoadsTranslateThroughVmem)
{
    std::vector<TraceRecord> v;
    v.push_back({0x1000, 0x123456, TraceOp::Load, 0});
    auto tail = nonMemTrace(2000);
    v.insert(v.end(), tail.begin(), tail.end());
    build(std::move(v));
    run(120);
    ASSERT_FALSE(mem.received.empty());
    // The physical address must match vmem's translation (the cache
    // block-aligns on entry; the core sends byte addresses).
    EXPECT_EQ(mem.received[0].paddr, vm.translate(0x123456, 0));
    EXPECT_EQ(mem.received[0].vaddr, Addr(0x123456));
}

// ----------------------------------------------------------------- vmem

TEST(VirtualMemoryTest, TranslationPreservesPageOffset)
{
    VirtualMemory vm(34);
    Addr va = 0x12345678;
    Addr pa = vm.translate(va, 0);
    EXPECT_EQ(pa & (pageSize - 1), va & (pageSize - 1));
}

TEST(VirtualMemoryTest, Deterministic)
{
    VirtualMemory vm(34);
    EXPECT_EQ(vm.translate(0x4000, 1), vm.translate(0x4000, 1));
}

TEST(VirtualMemoryTest, CoresGetDisjointMappings)
{
    VirtualMemory vm(34);
    EXPECT_NE(vm.pagePPN(7, 0), vm.pagePPN(7, 1));
}

TEST(VirtualMemoryTest, AdjacentPagesScatter)
{
    // Physical frames of adjacent virtual pages are unrelated, which
    // is what stops physical prefetchers from crossing 4KB usefully.
    VirtualMemory vm(34);
    Addr p0 = vm.pagePPN(100, 0);
    Addr p1 = vm.pagePPN(101, 0);
    EXPECT_NE(p1, p0 + 1);
}

TEST(VirtualMemoryTest, RespectsPhysicalBits)
{
    VirtualMemory vm(30); // 1GB => 18 bits of PPN
    for (Addr v = 0; v < 1000; ++v)
        EXPECT_LT(vm.pagePPN(v, 0), 1ULL << 18);
}

/**
 * A core whose loads a full L1D read queue refuses sleeps (its ROB is
 * full, so it cannot dispatch either) instead of retrying every cycle,
 * and the L1D wakes it for the cycle after it pops a slot free.
 */
TEST(CoreL1dWake, RefusedCoreSleepsUntilTheL1dPops)
{
    Cycle clock = 0;
    FakeMemory mem(&clock, /*latency=*/50);
    VirtualMemory vm(34);
    CacheParams p;
    p.name = "L1D-test";
    p.sets = 16;
    p.ways = 2;
    p.mshrs = 1;
    p.rqSize = 2;
    Cache l1d(p, &mem, &clock);
    CoreParams cp;
    cp.robSize = 8;
    Core core(cp, 0, &l1d, &vm, &clock);
    std::vector<TraceRecord> loads;
    for (int i = 0; i < 64; ++i)
        loads.push_back({0x1000, Addr(0x40000 + i * 64), TraceOp::Load, 0});
    VectorTrace trace(std::move(loads));
    core.setTrace(&trace);

    // A prefetch holds the L1D's only MSHR until its fill returns at
    // cycle 50, so the first two loads fill the read queue behind a
    // refused head and the third is refused from cycle 2 on.
    ASSERT_TRUE(l1d.issuePrefetch(0x900000, levelL1, false, 0));
    auto step = [&] {
        core.tick();
        l1d.tick();
        mem.tick();
        ++clock;
    };
    step();
    step();
    step();
    ASSERT_EQ(l1d.rqOccupancy(), 2u);
    ASSERT_EQ(core.outstandingLoads(), 2u);
    // The fill at cycle 50 wakes the L1D for 51, whose pop wakes the
    // core for 52. No fill reaches the core before then.
    while (clock < 52) {
        EXPECT_FALSE(core.wakeGate().due(clock)) << "cycle " << clock;
        step();
    }
    EXPECT_TRUE(core.wakeGate().due(clock));
    step();
    EXPECT_EQ(core.outstandingLoads(), 3u); // the refused load went in
}

} // namespace
} // namespace gaze
