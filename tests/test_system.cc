/**
 * @file
 * Whole-system integration tests: end-to-end simulations on small
 * traces, multi-core construction, warmup/reset semantics, prefetcher
 * attachment at both levels, and basic sanity of the paper's system-
 * level behaviours (prefetching helps streams; multi-core contention
 * lowers per-core IPC).
 */

#include <gtest/gtest.h>

#include "prefetchers/factory.hh"
#include "sim/system.hh"
#include "workloads/generators.hh"

namespace gaze
{
namespace
{

VectorTrace
smallStream(uint64_t seed = 1, uint64_t records = 120000)
{
    StreamParams p;
    p.seed = seed;
    p.records = records;
    p.streams = 2;
    return genStream(p);
}

TEST(System, BuildsTableIIGeometry)
{
    SystemConfig cfg;
    System sys(cfg);
    EXPECT_EQ(sys.l1d(0).params().sets, 64u);   // 48KB / 12 ways
    EXPECT_EQ(sys.l1d(0).params().ways, 12u);
    EXPECT_EQ(sys.l2(0).params().sets, 1024u);  // 512KB / 8 ways
    EXPECT_EQ(sys.llc().params().sets, 2048u);  // 2MB / 16 ways
    EXPECT_EQ(sys.dram().params().channels, 1u);
}

TEST(System, LlcAndDramScaleWithCores)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    System sys(cfg);
    EXPECT_EQ(sys.llc().params().sets, 8192u); // 8MB shared
    EXPECT_EQ(sys.dram().params().channels, 2u);
    EXPECT_EQ(sys.dram().params().ranksPerChannel, 2u);
}

TEST(System, RunsAndRetires)
{
    SystemConfig cfg;
    System sys(cfg);
    VectorTrace t = smallStream();
    sys.setTrace(0, &t);
    sys.run(20000);
    EXPECT_GE(sys.core(0).retired(), 20000u);
    EXPECT_GT(sys.cycle(), 5000u);
    EXPECT_GT(sys.l1d(0).stats().loadAccess, 1000u);
    EXPECT_GT(sys.dram().stats().reads, 100u);
}

TEST(System, ResetStatsClearsCounters)
{
    SystemConfig cfg;
    System sys(cfg);
    VectorTrace t = smallStream();
    sys.setTrace(0, &t);
    sys.run(20000);
    sys.resetStats();
    EXPECT_EQ(sys.l1d(0).stats().loadAccess, 0u);
    EXPECT_EQ(sys.dram().stats().reads, 0u);
    EXPECT_EQ(sys.core(0).stats().instructions, 0u);
    // retired() is cumulative (not a statistic).
    EXPECT_GE(sys.core(0).retired(), 20000u);
}

TEST(System, SimulateReportsPerCoreIpc)
{
    SystemConfig cfg;
    System sys(cfg);
    VectorTrace t = smallStream();
    sys.setTrace(0, &t);
    sys.run(10000);
    sys.resetStats();
    auto res = sys.simulate(30000);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_GE(res[0].instructions, 30000u);
    EXPECT_GT(res[0].ipc(), 0.05);
    EXPECT_LT(res[0].ipc(), 4.01);
}

TEST(System, PrefetchingImprovesStreaming)
{
    VectorTrace t1 = smallStream(7);
    VectorTrace t2 = smallStream(7);

    SystemConfig cfg;
    System base(cfg);
    base.setTrace(0, &t1);
    base.run(10000);
    base.resetStats();
    double ipc_base = base.simulate(40000)[0].ipc();

    System with_pf(cfg);
    with_pf.setTrace(0, &t2);
    with_pf.setL1Prefetcher(0, makePrefetcher("gaze"));
    with_pf.run(10000);
    with_pf.resetStats();
    double ipc_pf = with_pf.simulate(40000)[0].ipc();

    EXPECT_GT(ipc_pf, ipc_base * 1.2);
    EXPECT_GT(with_pf.l1d(0).stats().pfIssued
                  + with_pf.l2(0).stats().pfIssued,
              100u);
}

TEST(System, L2AttachedPrefetcherOperates)
{
    SystemConfig cfg;
    System sys(cfg);
    VectorTrace t = smallStream();
    sys.setTrace(0, &t);
    // No L1 prefetcher: the L2 sees the full L1 miss stream (one
    // sequential block per 8 element accesses) and trains on it.
    sys.setL2Prefetcher(0, makePrefetcher("spp_ppf"));
    sys.run(40000);
    EXPECT_GT(sys.l2(0).stats().pfIssued, 0u);
}

TEST(System, MultiCoreContentionLowersPerCoreIpc)
{
    VectorTrace solo = smallStream(3);
    SystemConfig cfg1;
    System one(cfg1);
    one.setTrace(0, &solo);
    one.run(5000);
    one.resetStats();
    double ipc1 = one.simulate(25000)[0].ipc();

    SystemConfig cfg4;
    cfg4.numCores = 4;
    // Force single-channel DRAM so contention is visible.
    cfg4.dramAuto = false;
    cfg4.dram.channels = 1;
    System four(cfg4);
    std::vector<VectorTrace> traces;
    for (int i = 0; i < 4; ++i)
        traces.push_back(smallStream(3));
    for (int i = 0; i < 4; ++i)
        four.setTrace(i, &traces[i]);
    four.run(5000);
    four.resetStats();
    auto res = four.simulate(25000);
    double avg = 0;
    for (const auto &r : res)
        avg += r.ipc();
    avg /= 4;
    EXPECT_LT(avg, ipc1 * 0.9);
}

TEST(System, HomogeneousCoresProgressTogether)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    System sys(cfg);
    VectorTrace a = smallStream(5);
    VectorTrace b = smallStream(5);
    sys.setTrace(0, &a);
    sys.setTrace(1, &b);
    sys.run(5000);
    sys.resetStats();
    auto res = sys.simulate(20000);
    // Same trace, same hardware: finishing cycles within 25%.
    double ratio = double(res[0].cycles) / double(res[1].cycles);
    EXPECT_GT(ratio, 0.75);
    EXPECT_LT(ratio, 1.33);
}

TEST(System, DistinctPrefetchersPerCore)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    System sys(cfg);
    VectorTrace a = smallStream(5);
    VectorTrace b = smallStream(6);
    sys.setTrace(0, &a);
    sys.setTrace(1, &b);
    sys.setL1Prefetcher(0, makePrefetcher("gaze"));
    // Core 1 runs without a prefetcher.
    sys.run(30000);
    EXPECT_GT(sys.l1d(0).stats().pfIssued, 0u);
    EXPECT_EQ(sys.l1d(1).stats().pfIssued, 0u);
}

TEST(System, WritebackTrafficReachesDram)
{
    StreamParams p;
    p.records = 150000;
    p.storeFraction = 0.5;
    VectorTrace t = genStream(p);
    // Shrink the hierarchy so dirty lines cascade out to DRAM within
    // the test's instruction budget.
    SystemConfig cfg;
    cfg.l1dBytes = 8 * 1024;
    cfg.l1dWays = 8;
    cfg.l2Bytes = 16 * 1024;
    cfg.llcBytesPerCore = 32 * 1024;
    System sys(cfg);
    sys.setTrace(0, &t);
    sys.run(60000);
    EXPECT_GT(sys.dram().stats().writes, 50u);
}

} // namespace
} // namespace gaze
