/**
 * @file
 * DRAM controller tests: Table II timing derivation, row-buffer
 * effects, bank-level parallelism, FR-FCFS with the starvation guard,
 * write-drain hysteresis, the bandwidth ceiling implied by 3200 MTPS
 * over a 64-bit bus, and the replay of cycles the controller sleeps
 * through.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/dram.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::FakeReceiver;

/** A fill's address and arrival cycle. */
using Fill = std::pair<Addr, Cycle>;

/** Records each fill's address and arrival cycle, in order. */
struct TimedReceiver : FillReceiver
{
    explicit TimedReceiver(const Cycle *c) : clock(c) {}

    void
    recvFill(const Request &req) override
    {
        fills.emplace_back(req.paddr, *clock);
    }

    const Cycle *clock;
    std::vector<Fill> fills;
};

class DramTest : public ::testing::Test
{
  protected:
    DramTest()
    {
        params.channels = 1;
        params.ranksPerChannel = 1;
    }

    void
    build()
    {
        dram = std::make_unique<Dram>(params, &clock);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            dram->tick();
            ++clock;
        }
    }

    /** Block @p col of @p row in @p bank (1 channel, 1 rank). */
    Addr
    at(uint32_t bank, uint64_t row, uint64_t col) const
    {
        uint64_t per_row = params.rowBufferBytes / blockSize;
        uint64_t block = (row * per_row + col) * params.banksPerRank + bank;
        return block * blockSize;
    }

    Request
    writeback(Addr a)
    {
        Request q;
        q.paddr = a;
        q.type = AccessType::Writeback;
        return q;
    }

    Request
    read(Addr a, FillReceiver *r)
    {
        Request q;
        q.paddr = a;
        q.type = AccessType::Load;
        q.requester = r;
        q.issueCycle = clock;
        return q;
    }

    Cycle clock = 0;
    DramParams params;
    std::unique_ptr<Dram> dram;
    FakeReceiver rx;
};

TEST_F(DramTest, TableIIScalingPerCores)
{
    EXPECT_EQ(DramParams::forCores(1).channels, 1u);
    EXPECT_EQ(DramParams::forCores(1).ranksPerChannel, 1u);
    EXPECT_EQ(DramParams::forCores(2).channels, 2u);
    EXPECT_EQ(DramParams::forCores(2).ranksPerChannel, 1u);
    EXPECT_EQ(DramParams::forCores(4).channels, 2u);
    EXPECT_EQ(DramParams::forCores(4).ranksPerChannel, 2u);
    EXPECT_EQ(DramParams::forCores(8).channels, 4u);
    EXPECT_EQ(DramParams::forCores(8).ranksPerChannel, 2u);
}

TEST_F(DramTest, SingleReadLatencyIsAccessPlusBurst)
{
    build();
    ASSERT_TRUE(dram->sendRequest(read(0x10000, &rx)));
    run(500);
    ASSERT_EQ(rx.fills.size(), 1u);
    // Cold bank: tRCD + tCAS = 100 cycles, + 10 burst.
    EXPECT_EQ(dram->stats().reads, 1u);
    EXPECT_NEAR(dram->stats().avgReadLatency(), 110.0, 2.0);
}

TEST_F(DramTest, RowHitIsFasterThanRowMiss)
{
    build();
    // Same bank, same row: channel=0 always (1ch); bank repeats every
    // 8 blocks; row buffer holds 32 blocks of a bank.
    Addr a = 0x100000;
    Addr same_row = a + 8 * 64; // same bank, +1 column
    dram->sendRequest(read(a, &rx));
    run(200);
    uint64_t lat_sum_first = dram->stats().readLatencySum;

    dram->sendRequest(read(same_row, &rx));
    run(200);
    uint64_t lat_second = dram->stats().readLatencySum - lat_sum_first;
    // Row hit: tCAS + burst = 60 vs cold 110.
    EXPECT_LT(lat_second, 70u);
    EXPECT_EQ(dram->stats().rowHits, 1u);
}

TEST_F(DramTest, RowConflictPaysPrechargeActivate)
{
    build();
    Addr a = 0x100000;
    // Same bank, different row: banks repeat every 8 blocks, a row
    // holds 32 blocks per bank -> +8*32 blocks is the next row.
    Addr other_row = a + 8 * 32 * 64;
    dram->sendRequest(read(a, &rx));
    run(200);
    uint64_t before = dram->stats().readLatencySum;
    dram->sendRequest(read(other_row, &rx));
    run(300);
    uint64_t lat = dram->stats().readLatencySum - before;
    // tRP + tRCD + tCAS + burst = 160.
    EXPECT_GE(lat, 155u);
    EXPECT_EQ(dram->stats().rowMisses, 2u);
}

TEST_F(DramTest, BankParallelismBeatsSerialAccess)
{
    build();
    // 8 reads to 8 different banks: total time far less than 8x one
    // access; data bus serializes only the 10-cycle bursts.
    for (int i = 0; i < 8; ++i)
        dram->sendRequest(read(0x200000 + i * 64, &rx));
    run(250);
    EXPECT_EQ(rx.fills.size(), 8u);
}

TEST_F(DramTest, ThroughputApproachesBusLimit)
{
    build();
    // Stream of same-row reads: steady state should approach one line
    // per burst (10 cycles).
    FakeReceiver sink;
    uint64_t issued = 0;
    for (Cycle t = 0; t < 4000; ++t) {
        if (issued < 300) {
            // Sequential blocks: rotate banks, stay in rows.
            if (dram->sendRequest(read(0x400000 + issued * 64, &sink)))
                ++issued;
        }
        dram->tick();
        ++clock;
    }
    run(500);
    EXPECT_GE(sink.fills.size(), 250u);
    double cycles_per_read = 4500.0 / double(sink.fills.size());
    EXPECT_LT(cycles_per_read, 18.0);
}

TEST_F(DramTest, ReadQueueBackpressure)
{
    params.rqSize = 4;
    build();
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(dram->sendRequest(read(0x10000 + i * 64, &rx)));
    EXPECT_FALSE(dram->sendRequest(read(0x90000, &rx)));
    EXPECT_EQ(dram->rqOccupancy(), 4u);
}

TEST_F(DramTest, WritesAreDrainedWithoutResponses)
{
    build();
    for (int i = 0; i < 60; ++i) {
        Request w;
        w.paddr = 0x500000 + i * 64;
        w.type = AccessType::Writeback;
        ASSERT_TRUE(dram->sendRequest(w));
    }
    run(4000);
    EXPECT_GT(dram->stats().writes, 0u);
    EXPECT_TRUE(rx.fills.empty());
}

TEST_F(DramTest, StarvationGuardBoundsReadWait)
{
    build();
    // One "victim" read to a lonely row, then a continuous stream of
    // row hits to another bank. The victim must still complete within
    // the starvation cap plus service time.
    dram->sendRequest(read(0x700000 + 1 * 64, &rx)); // bank 1
    FakeReceiver sink;
    uint64_t issued = 0;
    Cycle victim_done = 0;
    for (Cycle t = 0; t < 3000 && victim_done == 0; ++t) {
        // Keep bank 0 row-hitting (blocks 8 apart share bank 0's row).
        if (dram->sendRequest(read(0x800000 + issued * 8 * 64, &sink)))
            ++issued;
        dram->tick();
        ++clock;
        if (!rx.fills.empty())
            victim_done = clock;
    }
    ASSERT_NE(victim_done, 0u);
    EXPECT_LT(victim_done, 1200u);
}

TEST_F(DramTest, UtilizationTracksLoad)
{
    build();
    // Idle epoch -> ~0 utilization after one epoch rolls.
    run(10000);
    EXPECT_LT(dram->recentUtilization(), 0.05);

    // Saturate with reads for several epochs.
    FakeReceiver sink;
    uint64_t issued = 0;
    for (Cycle t = 0; t < 30000; ++t) {
        if (dram->sendRequest(read(0x600000 + issued * 64, &sink)))
            ++issued;
        dram->tick();
        ++clock;
    }
    EXPECT_GT(dram->recentUtilization(), 0.5);
}

TEST_F(DramTest, HigherMtpsShortensBurst)
{
    params.mtps = 12800.0; // DDR5-class
    build();
    dram->sendRequest(read(0x10000, &rx));
    run(300);
    // Burst shrinks from 10 to ceil(8*4000/12800)=3 cycles.
    EXPECT_NEAR(dram->stats().avgReadLatency(), 103.0, 2.0);
}

TEST_F(DramTest, MultiChannelPartitionsBlocks)
{
    params.channels = 4;
    build();
    // Consecutive blocks go to different channels: 4 simultaneous
    // cold accesses complete in about one access time, not four.
    for (int i = 0; i < 4; ++i)
        dram->sendRequest(read(0x900000 + i * 64, &rx));
    run(130);
    EXPECT_EQ(rx.fills.size(), 4u);
}

// The cases below pin completion order and cycles of scenarios where
// the controller sleeps through cycles that the reference schedule
// (one tick per cycle while any queue holds a request) ticks to no
// visible effect at the time. Dram::settle() must replay what those
// ticks changed; the pinned values are the reference schedule's.

TEST_F(DramTest, SkippedScansResetReorderBound)
{
    build();
    TimedReceiver sink(&clock);
    // Open row 1 of bank 0, then queue an older row miss ahead of ten
    // row hits. After each row hit bank 0 is busy, every scan until it
    // frees finds nothing ready and zeroes the bypass counter, so all
    // ten row hits pass the row miss.
    dram->sendRequest(read(at(0, 1, 0), &sink));
    run(200);
    dram->sendRequest(read(at(0, 2, 0), &sink));
    for (uint64_t col = 1; col <= 10; ++col)
        dram->sendRequest(read(at(0, 1, col), &sink));
    run(1000);
    std::vector<Fill> expect = {{at(0, 1, 0), 110}};
    for (uint64_t col = 1; col <= 10; ++col)
        expect.push_back({at(0, 1, col), 200 + 60 * col});
    expect.push_back({at(0, 2, 0), 960});
    EXPECT_EQ(sink.fills, expect);
}

TEST_F(DramTest, SkippedCyclesBeyondBusHorizonKeepReorderBound)
{
    // A slow bus with fast banks: a few bursts push busFree past the
    // issue horizon, and cycles beyond it do not scan, so the bypass
    // counter survives them and the row miss waits only its 8 bypasses.
    params.tRpNs = params.tRcdNs = params.tCasNs = 1.25;
    params.mtps = 400.0;
    build();
    TimedReceiver sink(&clock);
    for (uint32_t bank = 0; bank < 8; ++bank)
        dram->sendRequest(read(at(bank, 0, 0), &sink));
    run(1000);
    dram->sendRequest(read(at(0, 1, 0), &sink));
    for (uint64_t col = 1; col <= 2; ++col)
        for (uint32_t bank = 1; bank < 8; ++bank)
            dram->sendRequest(read(at(bank, 0, col), &sink));
    run(3000);
    // Bursts are 80 cycles. The row hits of column 1 and the first of
    // column 2 make the 8 bypasses; the row miss goes ninth.
    std::vector<Fill> expect;
    for (uint32_t bank = 0; bank < 8; ++bank)
        expect.push_back({at(bank, 0, 0), 90 + 80 * bank});
    Cycle t = 1085;
    for (uint32_t bank = 1; bank < 8; ++bank, t += 80)
        expect.push_back({at(bank, 0, 1), t});
    expect.push_back({at(1, 0, 2), t});
    expect.push_back({at(0, 1, 0), t + 80});
    t += 160;
    for (uint32_t bank = 2; bank < 8; ++bank, t += 80)
        expect.push_back({at(bank, 0, 2), t});
    EXPECT_EQ(sink.fills, expect);
}

TEST_F(DramTest, WritebackOnWakeCycleIsNotReplayed)
{
    params.wqDrainHigh = 3;
    params.wqDrainLow = 1;
    build();
    TimedReceiver sink(&clock);
    // Three writebacks start a drain; two issue, leaving the drain
    // flag set with the WQ at the low mark, so the next cycle's
    // hysteresis ends the drain. The read waits for bank 2 while the
    // controller sleeps. A writeback arriving in that sleep must not
    // be visible to the replayed hysteresis: the drain stays off, the
    // read issues when bank 2 frees, and the writes go after it.
    dram->sendRequest(writeback(at(2, 0, 0)));
    dram->sendRequest(writeback(at(3, 0, 0)));
    dram->sendRequest(writeback(at(4, 0, 0)));
    dram->sendRequest(read(at(2, 0, 1), &sink));
    run(100);
    dram->sendRequest(writeback(at(5, 0, 0)));
    run(400);
    // Row hit on bank 2 at 110: tCAS 50 + burst 10.
    EXPECT_EQ(sink.fills, (std::vector<Fill>{{at(2, 0, 1), 170}}));
}

TEST_F(DramTest, EmptySleepKeepsDrainState)
{
    params.wqDrainHigh = 2;
    params.wqDrainLow = 0;
    build();
    TimedReceiver sink(&clock);
    // The drain issues both writebacks and leaves its flag set with
    // every queue empty; an empty controller does not tick, so no
    // hysteresis runs while it sleeps. A read and a writeback arriving
    // together then find the drain still on: the write goes first and
    // the read's burst waits behind it.
    dram->sendRequest(writeback(at(1, 0, 0)));
    dram->sendRequest(writeback(at(2, 0, 0)));
    run(300);
    dram->sendRequest(read(at(3, 0, 0), &sink));
    dram->sendRequest(writeback(at(4, 0, 0)));
    run(300);
    EXPECT_EQ(sink.fills, (std::vector<Fill>{{at(3, 0, 0), 420}}));
}

} // namespace
} // namespace gaze
