/**
 * @file
 * Engine suite: RequestPool balance, the cycle cap, and the engine
 * contract — the auto engine (the polled loop plus a clock jump over
 * cycles on which every wake gate is closed) is metrics-BIT-identical
 * to the polled reference engine across the golden prefetchers (and
 * dspatch, which additionally exercises the DRAM utilization-epoch
 * catch-up), single- and multi-core.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "sim/request_pool.hh"
#include "sim/system.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

// Golden values depend on trace lengths: pin the scale exactly like
// test_golden_metrics before anything queries simScale().
const bool kScalePinned = [] {
    setenv("GAZE_SIM_SCALE", "0.02", 1);
    return true;
}();

// ---- RequestPool ----------------------------------------------------

TEST(RequestPoolTest, BalanceAndReuse)
{
    RequestPool pool;
    Request r;
    r.paddr = 0x1000;

    RequestPool::Node *head = nullptr;
    for (int i = 0; i < 100; ++i) {
        RequestPool::Node *n = pool.alloc(r);
        n->next = head;
        head = n;
    }
    EXPECT_EQ(pool.outstanding(), 100u);
    size_t created = pool.allocated();
    EXPECT_GE(created, 100u);

    pool.releaseChain(head);
    EXPECT_EQ(pool.outstanding(), 0u);

    // A second round must be served entirely from the free list.
    head = nullptr;
    for (int i = 0; i < 100; ++i) {
        RequestPool::Node *n = pool.alloc(r);
        n->next = head;
        head = n;
    }
    EXPECT_EQ(pool.allocated(), created);
    EXPECT_EQ(pool.outstanding(), 100u);
    pool.releaseChain(head);
    EXPECT_EQ(pool.outstanding(), 0u);
}

// ---- engine equivalence (the acceptance criterion) ------------------

RunConfig
smallConfig(EngineKind engine)
{
    RunConfig cfg;
    cfg.warmupInstr = 2000;
    cfg.simInstr = 8000;
    cfg.system.engine = engine;
    return cfg;
}

void
expectSameCacheStats(const CacheStats &a, const CacheStats &b,
                     const char *level, const std::string &ctx)
{
#define GAZE_EXPECT_FIELD(f) \
    EXPECT_EQ(a.f, b.f) << ctx << " " << level << " " #f
    GAZE_EXPECT_FIELD(loadAccess);
    GAZE_EXPECT_FIELD(loadHit);
    GAZE_EXPECT_FIELD(loadMiss);
    GAZE_EXPECT_FIELD(rfoAccess);
    GAZE_EXPECT_FIELD(rfoHit);
    GAZE_EXPECT_FIELD(rfoMiss);
    GAZE_EXPECT_FIELD(wbAccess);
    GAZE_EXPECT_FIELD(wbHit);
    GAZE_EXPECT_FIELD(wbMiss);
    GAZE_EXPECT_FIELD(pfIssued);
    GAZE_EXPECT_FIELD(pfDroppedFull);
    GAZE_EXPECT_FIELD(pfDroppedDup);
    GAZE_EXPECT_FIELD(pfDroppedHit);
    GAZE_EXPECT_FIELD(pfDroppedMshr);
    GAZE_EXPECT_FIELD(pfMshrWait);
    GAZE_EXPECT_FIELD(pfDemoted);
    GAZE_EXPECT_FIELD(pfFilled);
    GAZE_EXPECT_FIELD(pfUseful);
    GAZE_EXPECT_FIELD(pfUseless);
    GAZE_EXPECT_FIELD(pfLate);
    GAZE_EXPECT_FIELD(mshrMerge);
    GAZE_EXPECT_FIELD(mshrFullStall);
    GAZE_EXPECT_FIELD(writebacksSent);
    GAZE_EXPECT_FIELD(demandMissLatencySum);
    GAZE_EXPECT_FIELD(demandMissLatencyCnt);
#undef GAZE_EXPECT_FIELD
}

void
expectBitIdentical(const RunResult &au, const RunResult &po,
                   const std::string &ctx)
{
    ASSERT_EQ(au.cores.size(), po.cores.size()) << ctx;
    for (size_t c = 0; c < au.cores.size(); ++c) {
        EXPECT_EQ(au.cores[c].instructions, po.cores[c].instructions)
            << ctx << " core " << c;
        EXPECT_EQ(au.cores[c].cycles, po.cores[c].cycles)
            << ctx << " core " << c;
    }
    expectSameCacheStats(au.l1d, po.l1d, "l1d", ctx);
    expectSameCacheStats(au.l2, po.l2, "l2", ctx);
    expectSameCacheStats(au.llc, po.llc, "llc", ctx);
    EXPECT_EQ(au.dram.reads, po.dram.reads) << ctx;
    EXPECT_EQ(au.dram.writes, po.dram.writes) << ctx;
    EXPECT_EQ(au.dram.rowHits, po.dram.rowHits) << ctx;
    EXPECT_EQ(au.dram.rowMisses, po.dram.rowMisses) << ctx;
    EXPECT_EQ(au.dram.busBusyCycles, po.dram.busBusyCycles) << ctx;
    EXPECT_EQ(au.dram.readLatencySum, po.dram.readLatencySum) << ctx;
    // Exact double equality is intended: same arithmetic, same order.
    EXPECT_EQ(au.ipc(), po.ipc()) << ctx;
    // Both engines simulate the same number of cycles overall, and
    // tick with an open wake gate the same number of times.
    EXPECT_EQ(au.engine.cyclesTotal, po.engine.cyclesTotal) << ctx;
    EXPECT_EQ(au.engine.eventsDispatched, po.engine.eventsDispatched)
        << ctx;
}

TEST(EngineEquivalence, GoldenPrefetchersBitIdentical)
{
    EXPECT_TRUE(kScalePinned);
    // dspatch rides along with the golden three: it consults the DRAM
    // utilization epochs, whose idle-skip catch-up must also be exact.
    const std::vector<std::string> prefetchers = {"gaze", "ip_stride",
                                                  "sms", "dspatch"};
    const std::vector<std::string> workloads = {"leslie3d", "canneal",
                                                "BFS-17"};
    Runner autoRunner(smallConfig(EngineKind::Auto));
    Runner polledRunner(smallConfig(EngineKind::Polled));

    for (const auto &wname : workloads) {
        WorkloadDef w = findWorkload(wname);
        for (const auto &pname : prefetchers) {
            PfSpec pf;
            pf.l1 = pname;
            RunResult au = autoRunner.run(w, pf);
            RunResult po = polledRunner.run(w, pf);
            expectBitIdentical(au, po, wname + " x " + pname);
        }
        // Baselines too (no prefetcher: the purest idle-skip case).
        RunResult au = autoRunner.run(w, PfSpec{});
        RunResult po = polledRunner.run(w, PfSpec{});
        expectBitIdentical(au, po, wname + " x none");
    }
}

TEST(EngineEquivalence, MultiCoreMixBitIdentical)
{
    EXPECT_TRUE(kScalePinned);
    std::vector<WorkloadDef> mix = {findWorkload("leslie3d"),
                                    findWorkload("canneal")};
    PfSpec pf;
    pf.l1 = "gaze";

    Runner autoRunner(smallConfig(EngineKind::Auto));
    Runner polledRunner(smallConfig(EngineKind::Polled));
    RunResult au = autoRunner.runMix(mix, pf);
    RunResult po = polledRunner.runMix(mix, pf);
    expectBitIdentical(au, po, "2-core mix x gaze");
}

TEST(EngineEquivalence, AutoEngineIsDeterministic)
{
    EXPECT_TRUE(kScalePinned);
    PfSpec pf;
    pf.l1 = "gaze";
    WorkloadDef w = findWorkload("fotonik3d_s");
    Runner a(smallConfig(EngineKind::Auto));
    Runner b(smallConfig(EngineKind::Auto));
    expectBitIdentical(a.run(w, pf), b.run(w, pf),
                       "fotonik3d_s repeat");
}

// ---- engine stats ---------------------------------------------------

TEST(EngineStatsTest, PointerChaseSkipsIdleCycles)
{
    EXPECT_TRUE(kScalePinned);
    // canneal is the low-MLP case: one dependent load in flight at a
    // time, so most cycles are DRAM-latency waits the auto engine
    // must jump.
    WorkloadDef w = findWorkload("canneal");
    Runner au(smallConfig(EngineKind::Auto));
    RunResult r = au.run(w, PfSpec{});
    EXPECT_EQ(r.engine.kind, EngineKind::Auto);
    EXPECT_EQ(r.engine.cyclesExecuted + r.engine.cyclesSkipped,
              r.engine.cyclesTotal);
    EXPECT_GT(r.engine.cyclesSkipped, r.engine.cyclesTotal / 2)
        << "a dependent-load chain should be mostly idle cycles";
    EXPECT_GT(r.engine.eventsDispatched, 0u);
    EXPECT_GT(r.instructionsRetired, 0u);

    Runner po(smallConfig(EngineKind::Polled));
    RunResult p = po.run(w, PfSpec{});
    EXPECT_EQ(p.engine.kind, EngineKind::Polled);
    EXPECT_EQ(p.engine.cyclesSkipped, 0u);
    EXPECT_EQ(p.engine.cyclesExecuted, p.engine.cyclesTotal);
}

TEST(EngineStatsTest, SummaryCarriesEngineSlice)
{
    EXPECT_TRUE(kScalePinned);
    Runner au(smallConfig(EngineKind::Auto));
    RunResult r = au.run(findWorkload("leslie3d"), PfSpec{});
    RunSummary s = summarize(r);
    EXPECT_EQ(s.eventsDispatched, r.engine.eventsDispatched);
    EXPECT_EQ(s.cyclesExecuted, r.engine.cyclesExecuted);
    EXPECT_EQ(s.cyclesSkipped, r.engine.cyclesSkipped);
    EXPECT_EQ(s.minstrPerSec, r.minstrPerSec());
}

// ---- the cycle cap --------------------------------------------------

TEST(EngineCycleCap, TracelessCoreStopsAtTheCapOnBothEngines)
{
    // A core without a trace never retires, so run() and simulate()
    // can only end at their cycle cap: polled ticks its way there with
    // every gate closed, auto jumps there once every wake hint reads
    // kNeverWake. Both must stop at the same cycle and warn.
    const uint64_t instr = 10;
    const uint64_t cap = instr * SystemConfig{}.maxCyclesPerInstr + 1000000;
    std::vector<EngineStats> engines;
    for (EngineKind kind : {EngineKind::Polled, EngineKind::Auto}) {
        const std::string name = engineKindName(kind);
        SystemConfig cfg;
        cfg.engine = kind;
        System sys(cfg);

        testing::internal::CaptureStderr();
        sys.run(instr);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("run() hit the cycle cap"), std::string::npos)
            << name << ": " << err;
        EXPECT_EQ(sys.cycle(), cap) << name;

        testing::internal::CaptureStderr();
        std::vector<CoreResult> res = sys.simulate(instr);
        err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("simulate() hit the cycle cap"),
                  std::string::npos)
            << name << ": " << err;
        ASSERT_EQ(res.size(), 1u);
        EXPECT_EQ(res[0].instructions, 0u) << name;
        EXPECT_EQ(res[0].cycles, cap) << name;
        EXPECT_EQ(sys.cycle(), 2 * cap) << name;
        engines.push_back(sys.engineStats());
    }
    EXPECT_EQ(engines[1].eventsDispatched, engines[0].eventsDispatched);
    // Auto executes only cycle 0, where every gate starts open, and
    // jumps the rest; polled executes every cycle.
    EXPECT_EQ(engines[0].cyclesExecuted, 2 * cap);
    EXPECT_EQ(engines[1].cyclesExecuted, 1u);
}

// ---- request pool balance at system teardown ------------------------

TEST(RequestPoolTest, SystemTeardownIsBalanced)
{
    EXPECT_TRUE(kScalePinned);
    // Runs end with fetches in flight; System's destructor asserts
    // every pooled waiter came back. Surviving this scope IS the
    // test (the assert aborts otherwise).
    Runner au(smallConfig(EngineKind::Auto));
    PfSpec pf;
    pf.l1 = "gaze";
    RunResult r = au.run(findWorkload("mcf"), pf);
    EXPECT_GT(r.instructionsRetired, 0u);
}

} // namespace
} // namespace gaze
