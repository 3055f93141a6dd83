/**
 * @file
 * Multi-level hierarchy regression tests on a mini L1->L2->memory
 * stack. These pin down the subtle request-plumbing behaviours the
 * paper's experiments depend on (and that were the hardest bugs to
 * find during development):
 *
 *  - prefetch usefulness is attributed at the *target* fill level only;
 *  - an L2-targeted prefetch never allocates in the L1;
 *  - a prefetch request carrying an upper cache's MSHR must be
 *    answered even when the lower cache drops it (tag hit) — dropping
 *    silently leaks the upper MSHR and eventually wedges the core;
 *  - a demand merging into an in-flight lower-level prefetch upgrades
 *    its fill level so the data still reaches the L1;
 *  - an L1-fill prefetch that finds all L1 MSHRs busy is demoted to
 *    an L2 fill instead of clogging the PQ;
 *  - an L2 without a prefetcher still credits an L1 scheme's L2-target
 *    prefetches to that scheme.
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

class MultiLevelTest : public ::testing::Test
{
  protected:
    MultiLevelTest()
        : mem(&clock, /*latency=*/120)
    {
        CacheParams l2p;
        l2p.name = "L2-test";
        l2p.level = levelL2;
        l2p.sets = 64;
        l2p.ways = 4;
        l2p.latency = 10;
        l2p.mshrs = 8;
        l2p.pqSize = 8;
        l2 = std::make_unique<Cache>(l2p, &mem, &clock);

        CacheParams l1p;
        l1p.name = "L1-test";
        l1p.level = levelL1;
        l1p.sets = 16;
        l1p.ways = 2;
        l1p.latency = 4;
        l1p.mshrs = 4;
        l1p.pqSize = 8;
        l1 = std::make_unique<Cache>(l1p, l2.get(), &clock);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            l1->tick();
            l2->tick();
            mem.tick();
            ++clock;
        }
    }

    Request
    demand(Addr a, uint64_t token = 0)
    {
        Request r;
        r.paddr = a;
        r.vaddr = a;
        r.pc = 0x400000;
        r.type = AccessType::Load;
        r.fillLevel = levelL1;
        r.requester = &rx;
        r.token = token;
        r.issueCycle = clock;
        return r;
    }

    Cycle clock = 0;
    FakeMemory mem;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1;
    FakeReceiver rx;
};

TEST_F(MultiLevelTest, DemandFillsEveryLevelOnPath)
{
    l1->sendRequest(demand(0x10000));
    run(200);
    EXPECT_TRUE(l1->present(0x10000));
    EXPECT_TRUE(l2->present(0x10000));
    EXPECT_EQ(rx.fills.size(), 1u);
}

TEST_F(MultiLevelTest, L2TargetPrefetchFillsL2Only)
{
    ASSERT_TRUE(l1->issuePrefetch(0x20000, levelL2, false, 0));
    run(200);
    EXPECT_FALSE(l1->present(0x20000));
    EXPECT_TRUE(l2->present(0x20000));
    // Attribution: the pf bit lives at the target level only.
    EXPECT_EQ(l1->stats().pfFilled, 0u);
    EXPECT_EQ(l2->stats().pfFilled, 1u);
}

TEST_F(MultiLevelTest, L1TargetPrefetchDoesNotAttributeAtL2)
{
    ASSERT_TRUE(l1->issuePrefetch(0x30000, levelL1, false, 0));
    run(200);
    EXPECT_TRUE(l1->present(0x30000));
    EXPECT_TRUE(l2->present(0x30000)); // fills on the path...
    EXPECT_EQ(l1->stats().pfFilled, 1u);
    EXPECT_EQ(l2->stats().pfFilled, 0u); // ...without the pf bit
}

TEST_F(MultiLevelTest, LateDemandOnL2PrefetchStillReachesL1)
{
    // Prefetch to L2 in flight; a demand for the same block must
    // merge below and still fill the L1 for the core.
    l1->issuePrefetch(0x40000, levelL2, false, 0);
    run(15); // L2 MSHR allocated, memory not yet answered
    l1->sendRequest(demand(0x40000));
    run(250);
    ASSERT_EQ(rx.fills.size(), 1u);
    EXPECT_TRUE(l1->present(0x40000));
    EXPECT_EQ(l2->stats().pfLate, 1u);
}

TEST_F(MultiLevelTest, DroppedPrefetchWithRequesterIsAnswered)
{
    // Regression for the MSHR-leak wedge: warm the block into L2
    // only, then send an L1-*fill* prefetch. L1 allocates an MSHR and
    // forwards; L2 hits and must RESPOND (not silently drop), or the
    // L1 MSHR leaks forever.
    l1->issuePrefetch(0x50000, levelL2, false, 0);
    run(250);
    ASSERT_TRUE(l2->present(0x50000));
    ASSERT_FALSE(l1->present(0x50000));

    ASSERT_TRUE(l1->issuePrefetch(0x50000, levelL1, false, 0));
    run(100);
    EXPECT_TRUE(l1->present(0x50000));
    EXPECT_EQ(l1->mshrOccupancy(), 0u); // nothing leaked
}

TEST_F(MultiLevelTest, MshrFullDemotesL1PrefetchToL2)
{
    // Fill all 4 L1 MSHRs with demand misses, then issue an L1-fill
    // prefetch: it must demote (fetch to L2) rather than clog or die.
    mem.rejectReads = false;
    for (int i = 0; i < 4; ++i)
        l1->sendRequest(demand(0x60000 + i * 64, i));
    run(2);
    ASSERT_EQ(l1->mshrOccupancy(), 4u);
    ASSERT_TRUE(l1->issuePrefetch(0x70000, levelL1, false, 0));
    run(4);
    EXPECT_EQ(l1->stats().pfDemoted, 1u);
    run(250);
    EXPECT_TRUE(l2->present(0x70000));
    EXPECT_FALSE(l1->present(0x70000));
}

TEST_F(MultiLevelTest, WritebackCascadesThroughHierarchy)
{
    // Dirty a block at L1, evict it through both levels, and verify
    // the data reaches memory as a writeback.
    Request st = demand(0x80000);
    st.type = AccessType::Rfo;
    l1->sendRequest(st);
    run(200);

    // L1: 16 sets x 2 ways; same-set stride is 16*64 = 0x400.
    l1->sendRequest(demand(0x80000 + 0x400, 1));
    l1->sendRequest(demand(0x80000 + 0x800, 2));
    run(300);
    ASSERT_FALSE(l1->present(0x80000));
    // The dirty line landed in the L2 via writeback.
    EXPECT_TRUE(l2->present(0x80000));
    EXPECT_EQ(l2->stats().wbAccess, 1u);
}

/** Trains on nothing: it only gives hand-issued prefetches a scheme. */
class SchemeOnly : public Prefetcher
{
  public:
    std::string name() const override { return "scheme-only"; }
    void onAccess(const DemandAccess &) override {}
};

TEST_F(MultiLevelTest, L2WithoutPrefetcherCreditsTheIssuingScheme)
{
    SchemeOnly pf;
    pf.setSchemeId(3);
    l1->setPrefetcher(&pf, nullptr, nullptr, 0);

    // L2: 64 sets x 4 ways; same-set stride is 64*64 = 0x1000.
    ASSERT_TRUE(l1->issuePrefetch(0x100040, levelL2, false, 0)); // set 1
    ASSERT_TRUE(l1->issuePrefetch(0x200000, levelL2, false, 0)); // set 0
    run(250);
    ASSERT_TRUE(l2->present(0x100040));
    ASSERT_FALSE(l1->present(0x100040));
    ASSERT_GT(l2->schemeStats().size(), 3u);
    EXPECT_EQ(l2->schemeStats()[3].filled, 2u);

    // A demand hit at the L2 makes the first prefetch useful...
    l1->sendRequest(demand(0x100040, 1));
    run(50);
    ASSERT_EQ(rx.fills.size(), 1u);
    SchemeStats ss = l2->schemeStats()[3];
    EXPECT_EQ(ss.useful, 1u);
    EXPECT_EQ(ss.fillToUseCnt, 1u);
    EXPECT_GT(ss.fillToUseSum, 0u);

    // ...and four demands to the second one's set evict it untouched.
    for (int i = 1; i <= 4; ++i)
        l1->sendRequest(demand(0x200000 + i * 0x1000, 1 + i));
    run(400);
    ASSERT_FALSE(l2->present(0x200000));
    EXPECT_EQ(l2->schemeStats()[3].useless, 1u);
    EXPECT_EQ(l2->stats().pfUseful, 1u);
    EXPECT_EQ(l2->stats().pfUseless, 1u);
}

/**
 * An L1 prefetch passed down to an L2 whose full prefetch queue waits
 * on a full MSHR file is refused every cycle until the L2 pops its
 * head. The L1 sleeps through those cycles, the L2's pop wakes it for
 * the next cycle (the first on which its send can succeed), and the
 * L2's pfDroppedFull counts one refusal per cycle the L1 waited,
 * whether it is read mid-sleep or after.
 */
TEST_F(MultiLevelTest, L1AsleepOnFullL2QueueWakesTheCycleAfterThePop)
{
    // Eight L2 prefetches take the L2's eight MSHRs by cycle 3 (their
    // fills return from cycle 120); eight more fill its queue.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(l2->issuePrefetch(0x100000 + i * 64, levelL2, false, 0));
    run(4);
    ASSERT_EQ(l2->mshrOccupancy(), 8u);
    for (int i = 8; i < 16; ++i)
        ASSERT_TRUE(l2->issuePrefetch(0x100000 + i * 64, levelL2, false, 0));
    ASSERT_TRUE(l1->issuePrefetch(0x200000, levelL2, false, 0));
    const Cycle first_refusal = clock;

    Cycle pop = 0;
    while (pop == 0) {
        bool open = l1->wakeGate().due(clock);
        if (clock > first_refusal)
            EXPECT_FALSE(open) << "cycle " << clock;
        l1->tick();
        l2->tick();
        mem.tick();
        if (l2->pqOccupancy() < 8)
            pop = clock;
        ++clock;
        if (clock == 60) {
            EXPECT_EQ(l2->stats().pfDroppedFull, 60 - first_refusal);
        }
        ASSERT_LT(clock, 400u);
    }
    // The first two fills return at cycle 120 and wake the L2 for 121.
    EXPECT_EQ(pop, 121u);
    EXPECT_TRUE(l1->wakeGate().due(clock));
    EXPECT_EQ(l2->stats().pfDroppedFull, pop - first_refusal + 1);
    run(1);
    EXPECT_EQ(l1->pqOccupancy(), 0u); // the send went through
    EXPECT_EQ(l2->stats().pfDroppedFull, pop - first_refusal + 1);
}

TEST_F(MultiLevelTest, DuplicatePqTargetsAreDeduped)
{
    ASSERT_TRUE(l1->issuePrefetch(0x90000, levelL1, false, 0));
    ASSERT_TRUE(l1->issuePrefetch(0x90000 + 8, levelL1, false, 0));
    EXPECT_EQ(l1->stats().pfIssued, 1u);
    EXPECT_EQ(l1->stats().pfDroppedDup, 1u);
}

} // namespace
} // namespace gaze
