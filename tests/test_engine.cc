/**
 * @file
 * Engine suite: timing-wheel ordering/rollover property tests,
 * same-cycle dispatch determinism, RequestPool balance, and the
 * engine contract — the auto engine (event-driven idle skipping with
 * adaptive polled stints) is metrics-BIT-identical to the polled
 * reference engine across the golden prefetchers (and dspatch, which
 * additionally exercises the DRAM utilization-epoch catch-up),
 * single- and multi-core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "sim/event.hh"
#include "sim/request_pool.hh"
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

// ---- EventQueue properties ------------------------------------------

/** Records its own dispatch into a shared log. */
class LogEvent : public Event
{
  public:
    using Log = std::vector<std::tuple<Cycle, int, const LogEvent *>>;

    LogEvent(int priority, Log *log_, const EventQueue *q)
        : Event(priority), log(log_), queue(q)
    {
    }

    void
    process() override
    {
        log->emplace_back(queue->currentCycle(), priority(), this);
        ++runs;
    }

    int runs = 0;

  private:
    Log *log;
    const EventQueue *queue;
};

void
drain(EventQueue &q)
{
    while (true) {
        Cycle c = q.nextEventCycle();
        if (c == EventQueue::kNoEvent)
            break;
        q.dispatchCycle(c);
    }
}

TEST(EventQueueOrder, RandomScheduleDispatchesSortedOnce)
{
    // Property: whatever the schedule order, dispatch order is
    // (cycle, priority, schedule-seq) — including cycles far past the
    // wheel horizon (rollover through the overflow heap).
    EventQueue q(64);
    LogEvent::Log log;
    Rng rng(0x5eed);

    std::vector<std::unique_ptr<LogEvent>> events;
    std::vector<Cycle> whens;
    for (int i = 0; i < 300; ++i) {
        int prio = static_cast<int>(rng.below(4));
        events.push_back(std::make_unique<LogEvent>(prio, &log, &q));
        // Mix near cycles, horizon-straddling ones, and far ones
        // (several wheel revolutions out).
        Cycle when = rng.below(3) == 0 ? rng.below(60)
                     : rng.below(2) == 0
                         ? 50 + rng.below(100)
                         : rng.below(64 * 40);
        whens.push_back(when);
    }
    for (size_t i = 0; i < events.size(); ++i)
        q.schedule(events[i].get(), whens[i]);

    drain(q);

    ASSERT_EQ(log.size(), events.size());
    for (const auto &e : events)
        EXPECT_EQ(e->runs, 1);
    for (size_t i = 1; i < log.size(); ++i) {
        Cycle pc = std::get<0>(log[i - 1]), cc = std::get<0>(log[i]);
        int pp = std::get<1>(log[i - 1]), cp = std::get<1>(log[i]);
        EXPECT_TRUE(pc < cc || (pc == cc && pp <= cp))
            << "order violated at " << i;
    }
    // Dispatched cycles must match what was scheduled.
    std::vector<Cycle> got;
    for (const auto &entry : log)
        got.push_back(std::get<0>(entry));
    std::vector<Cycle> want = whens;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
}

TEST(EventQueueOrder, SameCycleDispatchIsPriorityThenScheduleOrder)
{
    EventQueue q(16);
    LogEvent::Log log;
    LogEvent a(2, &log, &q), b(0, &log, &q), c(1, &log, &q);
    LogEvent d(1, &log, &q); // same priority as c, scheduled later
    // Insertion order deliberately scrambled.
    q.schedule(&a, 7);
    q.schedule(&c, 7);
    q.schedule(&d, 7);
    q.schedule(&b, 7);
    drain(q);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(std::get<2>(log[0]), &b); // prio 0
    EXPECT_EQ(std::get<2>(log[1]), &c); // prio 1, scheduled first
    EXPECT_EQ(std::get<2>(log[2]), &d); // prio 1, scheduled second
    EXPECT_EQ(std::get<2>(log[3]), &a); // prio 2
}

TEST(EventQueueOrder, WheelRolloverKeepsExactCycles)
{
    // Events spaced exactly one wheel span apart land in the same
    // bucket index across revolutions; each must still fire at its
    // own cycle.
    EventQueue q(16);
    LogEvent::Log log;
    std::vector<std::unique_ptr<LogEvent>> events;
    for (int k = 0; k < 8; ++k) {
        events.push_back(std::make_unique<LogEvent>(0, &log, &q));
        q.schedule(events.back().get(), 5 + Cycle(k) * 16);
    }
    drain(q);
    ASSERT_EQ(log.size(), 8u);
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(std::get<0>(log[size_t(k)]), 5u + Cycle(k) * 16);
}

TEST(EventQueue, ScheduleEarlierSupersedesAndIsIdempotent)
{
    EventQueue q(32);
    LogEvent::Log log;
    LogEvent e(0, &log, &q);
    q.schedule(&e, 100);
    q.scheduleEarlier(&e, 40); // pulls earlier
    q.scheduleEarlier(&e, 60); // no-op: already earlier
    q.scheduleEarlier(&e, 40); // no-op: same cycle
    EXPECT_EQ(q.size(), 1u);
    drain(q);
    ASSERT_EQ(log.size(), 1u); // superseded entry must not re-fire
    EXPECT_EQ(std::get<0>(log[0]), 40u);
    EXPECT_EQ(e.runs, 1);
}

/** Reschedules itself a fixed number of times from process(). */
class ChainEvent : public Event
{
  public:
    ChainEvent(EventQueue *q_, int hops_) : Event(0), q(q_), hops(hops_)
    {
    }

    void
    process() override
    {
        fired.push_back(q->currentCycle());
        if (--hops > 0)
            q->schedule(this, q->currentCycle() + 7);
    }

    std::vector<Cycle> fired;

  private:
    EventQueue *q;
    int hops;
};

TEST(EventQueue, SelfReschedulingEventWalksForward)
{
    EventQueue q(8); // tiny wheel: every hop crosses the horizon
    ChainEvent e(&q, 5);
    q.schedule(&e, 3);
    drain(q);
    ASSERT_EQ(e.fired.size(), 5u);
    for (size_t i = 0; i < e.fired.size(); ++i)
        EXPECT_EQ(e.fired[i], 3u + 7 * i);
    EXPECT_EQ(q.stats().dispatched, 5u);
}

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
    // Both engines simulate the same number of cycles overall.
    EXPECT_EQ(au.engine.cyclesTotal, po.engine.cyclesTotal) << ctx;
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
    // time, so most cycles are DRAM-latency waits the auto engine's
    // event stints must skip.
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
