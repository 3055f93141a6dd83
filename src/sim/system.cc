#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace gaze
{

namespace
{

// ---- Auto-engine policy knobs (all deterministic, all counted in ----
// ---- cycles, so the adaptive schedule replays identically). ----

/**
 * Executed cycles per event-dispatch measurement stint. Deliberately
 * short: on a dense workload every event-dispatched cycle costs a few
 * times a polled tick, and the startup stint is pure overhead until
 * the first flip — 1k cycles keeps that under ~3% even for tiny runs
 * while still sampling enough cycles for a stable skip fraction.
 */
constexpr uint64_t kAutoEventStint = 1024;

/** Stint skip fraction at or above which event dispatch is a win. */
constexpr double kAutoSkipThreshold = 0.20;

/** First polled stint length; doubles per failed event trial. */
constexpr uint64_t kAutoPolledStintBase = 1ull << 16;

/** Polled-stint backoff ceiling (~4.2M cycles). */
constexpr uint64_t kAutoPolledStintMax = 1ull << 22;

/** Polled stints probe component wakes every this many cycles. */
constexpr uint64_t kAutoProbePeriod = 1024;

/** Idle gap (cycles) that ends a polled stint early: flip to event. */
constexpr uint64_t kAutoFlipGap = 256;

} // namespace

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Polled:
        return "polled";
      case EngineKind::Auto:
        return "auto";
    }
    return "?";
}

EngineKind
parseEngineKind(const std::string &name)
{
    if (name == "polled")
        return EngineKind::Polled;
    if (name == "auto")
        return EngineKind::Auto;
    GAZE_FATAL("unknown simulation engine '", name,
               "' (known: polled, auto)");
}

System::System(const SystemConfig &config)
    : cfg(config), autoPolledStintLen(kAutoPolledStintBase), vm(34)
{
    GAZE_ASSERT(cfg.numCores >= 1 && cfg.numCores <= 64, "bad core count");
    // Validate the replacement policy eagerly, before any cache is
    // built, so a bad campaign/CLI string dies here with the full
    // list instead of surfacing from some worker mid-run (mirrors the
    // prefetcher registry's unknown-scheme diagnostics).
    if (!isKnownReplacementPolicy(cfg.replacement))
        GAZE_FATAL("unknown replacement policy '", cfg.replacement,
                   "' in SystemConfig (known: ",
                   knownReplacementPolicyList(), ")");

    DramParams dp = cfg.dramAuto ? DramParams::forCores(cfg.numCores)
                                 : cfg.dram;
    if (cfg.dramAuto) {
        // Keep any user-tuned timing/bus fields from cfg.dram.
        dp.mtps = cfg.dram.mtps;
        dp.cpuGhz = cfg.dram.cpuGhz;
    }
    dramCtrl = std::make_unique<Dram>(dp, &clock);

    CacheParams llc_p;
    llc_p.name = "LLC";
    llc_p.level = levelLLC;
    llc_p.ways = cfg.llcWays;
    llc_p.sets = CacheParams::setsFor(cfg.llcBytesPerCore * cfg.numCores,
                                      cfg.llcWays);
    llc_p.latency = cfg.llcLatency;
    llc_p.mshrs = cfg.llcMshrsPerCore * cfg.numCores;
    llc_p.rqSize = 64 * cfg.numCores;
    llc_p.wqSize = 64 * cfg.numCores;
    llc_p.pqSize = 32 * cfg.numCores;
    llc_p.replacement = cfg.replacement;
    llcCache = std::make_unique<Cache>(llc_p, dramCtrl.get(), &clock,
                                       &pool);

    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        CacheParams l2_p;
        l2_p.name = "L2C" + std::to_string(c);
        l2_p.level = levelL2;
        l2_p.ways = cfg.l2Ways;
        l2_p.sets = CacheParams::setsFor(cfg.l2Bytes, cfg.l2Ways);
        l2_p.latency = cfg.l2Latency;
        l2_p.mshrs = cfg.l2Mshrs;
        l2_p.rqSize = 32;
        l2_p.wqSize = 32;
        l2_p.pqSize = 16;
        l2_p.replacement = cfg.replacement;
        l2s.push_back(std::make_unique<Cache>(l2_p, llcCache.get(),
                                              &clock, &pool));

        CacheParams l1_p;
        l1_p.name = "L1D" + std::to_string(c);
        l1_p.level = levelL1;
        l1_p.ways = cfg.l1dWays;
        l1_p.sets = CacheParams::setsFor(cfg.l1dBytes, cfg.l1dWays);
        l1_p.latency = cfg.l1dLatency;
        l1_p.mshrs = cfg.l1dMshrs;
        l1_p.rqSize = 64;
        l1_p.wqSize = 64;
        l1_p.pqSize = 8;
        l1_p.replacement = cfg.replacement;
        l1ds.push_back(std::make_unique<Cache>(l1_p, l2s.back().get(),
                                               &clock, &pool));

        cores.push_back(std::make_unique<Core>(cfg.core, c,
                                               l1ds.back().get(), &vm,
                                               &clock));
    }

    if (cfg.engine != EngineKind::Polled) {
        // Priorities reproduce tickAll()'s fixed order: all cores,
        // then L1Ds, L2s, the LLC, DRAM last — so same-cycle events
        // dispatch exactly as the polled engine ticks.
        int n = static_cast<int>(cfg.numCores);
        for (uint32_t c = 0; c < cfg.numCores; ++c) {
            cores[c]->bindScheduler(&eq, static_cast<int>(c));
            l1ds[c]->bindScheduler(&eq, n + static_cast<int>(c));
            l2s[c]->bindScheduler(&eq, 2 * n + static_cast<int>(c));
        }
        llcCache->bindScheduler(&eq, 3 * n);
        dramCtrl->bindScheduler(&eq, 3 * n + 1);
    }
}

System::~System()
{
    // Tear the hierarchy down first so every in-flight MSHR returns
    // its waiter chain, then hold the pool to its balance contract:
    // anything still outstanding is a leaked Request.
    cores.clear();
    l1ds.clear();
    l2s.clear();
    llcCache.reset();
    dramCtrl.reset();
    GAZE_ASSERT(pool.outstanding() == 0,
                "request pool imbalance at teardown: ",
                pool.outstanding(), " node(s) leaked");
}

void
System::setTrace(uint32_t cpu, TraceSource *trace)
{
    GAZE_ASSERT(cpu < cfg.numCores, "cpu out of range");
    cores[cpu]->setTrace(trace);
}

void
System::setL1Prefetcher(uint32_t cpu, std::unique_ptr<Prefetcher> pf)
{
    GAZE_ASSERT(cpu < cfg.numCores, "cpu out of range");
    if (!pf)
        return;
    pf->setSchemeId(schemeIdFor(pf->name(), levelL1));
    l1ds[cpu]->setPrefetcher(pf.get(), &vm, dramCtrl.get(), cpu);
    ownedPrefetchers.push_back(std::move(pf));
}

void
System::setL2Prefetcher(uint32_t cpu, std::unique_ptr<Prefetcher> pf)
{
    GAZE_ASSERT(cpu < cfg.numCores, "cpu out of range");
    if (!pf)
        return;
    pf->setSchemeId(schemeIdFor(pf->name(), levelL2));
    l2s[cpu]->setPrefetcher(pf.get(), &vm, dramCtrl.get(), cpu);
    ownedPrefetchers.push_back(std::move(pf));
}

uint16_t
System::schemeIdFor(const std::string &name, uint32_t level)
{
    std::string label = name + (level == levelL1 ? "@l1" : "@l2");
    for (size_t i = 0; i < schemeLabels.size(); ++i) {
        if (schemeLabels[i] == label)
            return static_cast<uint16_t>(i + 1);
    }
    GAZE_ASSERT(schemeLabels.size() < 0xFFFF, "scheme id space exhausted");
    schemeLabels.push_back(label);
    return static_cast<uint16_t>(schemeLabels.size());
}

void
System::bindObsCounters(obs::Registry *reg)
{
    GAZE_ASSERT(reg, "bindObsCounters needs a registry");

    auto bindCache = [&](const std::string &prefix, Cache *c) {
        const CacheStats &s = c->stats();
#define GAZE_OBS_CACHE_STAT(f)                                             \
    reg->bindCounter(prefix + "." #f, &s.f);
#define GAZE_OBS_CORE_STAT(f)
#define GAZE_OBS_DRAM_STAT(f)
#define GAZE_OBS_EVENT_STAT(f)
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
#undef GAZE_OBS_EVENT_STAT
        reg->bindGauge(prefix + ".pqOccupancy",
                       [c] { return uint64_t(c->pqOccupancy()); });
        reg->bindGauge(prefix + ".mshrOccupancy",
                       [c] { return uint64_t(c->mshrOccupancy()); });
    };

    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        const std::string n = std::to_string(c);
        const CoreStats &s = cores[c]->stats();
#define GAZE_OBS_CACHE_STAT(f)
#define GAZE_OBS_CORE_STAT(f)                                              \
    reg->bindCounter("core" + n + "." #f, &s.f);
#define GAZE_OBS_DRAM_STAT(f)
#define GAZE_OBS_EVENT_STAT(f)
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
#undef GAZE_OBS_EVENT_STAT
        bindCache("l1d" + n, l1ds[c].get());
        bindCache("l2" + n, l2s[c].get());
    }
    bindCache("llc", llcCache.get());

    {
        const DramStats &s = dramCtrl->stats();
        const EventQueueStats &q = eq.stats();
#define GAZE_OBS_CACHE_STAT(f)
#define GAZE_OBS_CORE_STAT(f)
#define GAZE_OBS_DRAM_STAT(f) reg->bindCounter("dram." #f, &s.f);
#define GAZE_OBS_EVENT_STAT(f) reg->bindCounter("eventq." #f, &q.f);
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
#undef GAZE_OBS_EVENT_STAT
    }

    // Engine-speed counters: deterministic per engine kind, not
    // across kinds (cross-engine comparisons must filter "engine.*"
    // and "eventq.*" out, exactly as EngineStats is excluded from the
    // bitwise differential checks).
    reg->bindCounter("engine.cycle", &clock);
    reg->bindCounter("engine.executedCycles", &executedCycles);
    reg->bindCounter("engine.dispatchedEvents", &dispatchedEvents);
    reg->bindCounter("engine.flips", &statEngineFlips);
    reg->bindCounter("engine.polledCycles", &statPolledCycles);
}

void
System::setObsSampler(obs::IntervalSampler *sampler)
{
    obsSampler = sampler;
}

void
System::setObsTrace(obs::TraceSink *sink, const std::string &label)
{
    obsTrace = sink;
    if (!sink)
        return;
    obsEngineTid = sink->allocTrack(obs::kPidSim, label + " engine");
    obsCoreTids.clear();
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        obsCoreTids.push_back(sink->allocTrack(
            obs::kPidSim, label + " core" + std::to_string(c)));
    obsDramTid = sink->allocTrack(obs::kPidSim, label + " dram");
}

void
System::obsStintSpan(const char *name, Cycle begin)
{
    if (!obsTrace || clock < begin)
        return;
    obsTrace->span(obs::kPidSim, obsEngineTid, name, begin,
                   clock - begin);
    obsTrace->counter(obs::kPidSim, obsDramTid, "dram_util", clock,
                      dramCtrl->recentUtilization());
}

void
System::tickComponents()
{
    for (auto &c : cores)
        c->tick();
    for (auto &c : l1ds)
        c->tick();
    for (auto &c : l2s)
        c->tick();
    llcCache->tick();
    dramCtrl->tick();
}

void
System::tickAll()
{
    tickComponents();
    ++clock;
    ++executedCycles;
    ++statPolledCycles;
    dispatchedEvents += 3 * uint64_t(cfg.numCores) + 2;
}

void
System::scheduleAll()
{
    // Arm every component at the current cycle so a (re)started run
    // considers it, exactly like the polled engine's unconditional
    // first tickAll(). Anything already scheduled earlier keeps its
    // slot; anything stranded in the past by a cycle-cap jump (or
    // gone stale across an auto-engine polled stint) is pulled
    // forward or superseded.
    for (auto &c : cores)
        c->wakeAt(clock);
    for (auto &c : l1ds)
        c->wakeAt(clock);
    for (auto &c : l2s)
        c->wakeAt(clock);
    llcCache->wakeAt(clock);
    dramCtrl->wakeAt(clock);
}

Cycle
System::minNextWakeCycle() const
{
    Cycle m = kNeverWake;
    for (const auto &c : cores)
        m = std::min(m, c->nextWakeCycle());
    for (const auto &c : l1ds)
        m = std::min(m, c->nextWakeCycle());
    for (const auto &c : l2s)
        m = std::min(m, c->nextWakeCycle());
    m = std::min(m, llcCache->nextWakeCycle());
    m = std::min(m, dramCtrl->nextWakeCycle());
    return m;
}

template <typename DoneFn, typename PostCycleFn>
System::LoopExit
System::eventStint(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    scheduleAll();
    uint64_t execBase = executedCycles;
    while (!done()) {
        if (executedCycles - execBase >= kAutoEventStint)
            return LoopExit::Stint;
        Cycle next = eq.nextEventCycle();
        if (next == EventQueue::kNoEvent) {
            // Every component asleep with targets unmet: the polled
            // engine would spin no-op cycles to the cap; jump there.
            clock = cap;
            return LoopExit::Capped;
        }
        if (next < clock) {
            // A cycle flagged only by superseded entries (lazy
            // deschedule): drain it without touching the clock.
            size_t stale = eq.dispatchCycle(next);
            GAZE_ASSERT(stale == 0, "live event behind the clock");
            continue;
        }
        if (next >= cap) {
            clock = cap;
            return LoopExit::Capped;
        }
        clock = next;
        GAZE_OBS_HOOK(if (obsSampler) obsSampler->advanceTo(next););
        size_t n = eq.dispatchCycle(next);
        clock = next + 1;
        if (n > 0) {
            ++executedCycles;
            dispatchedEvents += n;
            post();
        }
    }
    return LoopExit::Done;
}

template <typename DoneFn, typename PostCycleFn>
bool
System::polledLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    while (!done()) {
        if (clock >= cap)
            return false;
        GAZE_OBS_HOOK(if (obsSampler) obsSampler->advanceTo(clock););
        tickAll();
        post();
    }
    return true;
}

template <typename DoneFn, typename PostCycleFn>
System::LoopExit
System::polledStint(uint64_t cap, uint64_t stint_len, DoneFn &&done,
                    PostCycleFn &&post)
{
    uint64_t ticked = 0;
    while (true) {
        if (done())
            return LoopExit::Done;
        if (clock >= cap)
            return LoopExit::Capped;
        if (ticked >= stint_len)
            return LoopExit::Stint;

        // Execute the cycle `clock` points at. The wake probe (every
        // kAutoProbePeriod-th cycle) must run while the clock still
        // names the cycle just ticked: nextWakeCycle() answers
        // relative to now(), and post-tick it is always > now(), so a
        // min over every component bounds the first future cycle any
        // tick could matter — the same argument that makes event
        // dispatch's skips exact.
        bool probe = (clock & (kAutoProbePeriod - 1)) == 0;
        GAZE_OBS_HOOK(if (obsSampler) obsSampler->advanceTo(clock););
        tickComponents();
        Cycle wake = probe ? minNextWakeCycle() : 0;
        ++clock;
        ++executedCycles;
        ++statPolledCycles;
        ++ticked;
        dispatchedEvents += 3 * uint64_t(cfg.numCores) + 2;
        post();

        if (probe) {
            if (wake == kNeverWake) {
                // Nothing will ever self-wake again: either the run
                // just finished, or it is wedged — jump to the cap
                // exactly as event dispatch does.
                if (done())
                    return LoopExit::Done;
                clock = cap;
                return LoopExit::Capped;
            }
            if (wake > clock) {
                uint64_t gap = wake - clock;
                clock = std::min(wake, cap);
                if (gap >= kAutoFlipGap) {
                    // A real idle stretch: event dispatch will win.
                    return LoopExit::Stint;
                }
            }
        }
    }
}

template <typename DoneFn, typename PostCycleFn>
bool
System::autoLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    // Policy: run event-driven by default, measuring the skip
    // fraction over fixed stints of executed cycles. A dense stint
    // (skip < kAutoSkipThreshold) parks the event queue and ticks the
    // polled way for autoPolledStintLen cycles — doubling per failed
    // event re-trial so steady dense workloads pay the trial tax
    // geometrically less often — while a periodic wake probe inside
    // the polled stint still skips (and flips out of) genuinely idle
    // stretches. Every transition is a function of executed-cycle
    // counts only, so a given run always takes the same path.
    [[maybe_unused]] Cycle stintBegin = clock;
    while (true) {
        if (!autoInPolled) {
            eq.resume();
            Cycle clockBase = clock;
            uint64_t execBase = executedCycles;
            LoopExit ex = eventStint(cap, done, post);
            if (ex == LoopExit::Done || ex == LoopExit::Capped) {
                GAZE_OBS_HOOK(obsStintSpan("event stint", stintBegin););
                return ex == LoopExit::Done;
            }
            uint64_t delta = clock - clockBase;
            uint64_t exec = executedCycles - execBase;
            double skip =
                delta ? double(delta - exec) / double(delta) : 0.0;
            if (skip >= kAutoSkipThreshold) {
                // Healthy skipping: stay event, forget the backoff.
                autoPolledStintLen = kAutoPolledStintBase;
                continue;
            }
            eq.suspend();
            ++statEngineFlips;
            GAZE_OBS_HOOK(obsStintSpan("event stint", stintBegin);
                          stintBegin = clock;);
            autoInPolled = true;
        } else {
            uint64_t stint = autoPolledStintLen;
            autoPolledStintLen =
                std::min(autoPolledStintLen * 2, kAutoPolledStintMax);
            LoopExit ex = polledStint(cap, stint, done, post);
            if (ex == LoopExit::Done || ex == LoopExit::Capped) {
                GAZE_OBS_HOOK(obsStintSpan("polled stint", stintBegin););
                return ex == LoopExit::Done;
            }
            // Stint over (or an idle gap opened): trial event mode.
            // scheduleAll() at eventStint entry re-arms every
            // component, repairing whatever went stale in the queue
            // while it was suspended.
            ++statEngineFlips;
            GAZE_OBS_HOOK(obsStintSpan("polled stint", stintBegin);
                          stintBegin = clock;);
            autoInPolled = false;
        }
    }
}

template <typename DoneFn, typename PostCycleFn>
bool
System::driveLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    if (cfg.engine == EngineKind::Polled)
        return polledLoop(cap, done, post);
    return autoLoop(cap, done, post);
}

void
System::run(uint64_t instr_per_core)
{
    std::vector<uint64_t> target(cfg.numCores);
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        target[c] = cores[c]->retired() + instr_per_core;

    uint64_t cap = clock + instr_per_core * cfg.maxCyclesPerInstr
                   + 1000000;
    auto all_done = [&] {
        for (uint32_t c = 0; c < cfg.numCores; ++c) {
            if (cores[c]->retired() < target[c])
                return false;
        }
        return true;
    };

    [[maybe_unused]] Cycle runBegin = clock;
    if (!driveLoop(cap, all_done, [] {}))
        GAZE_WARN("run() hit the cycle cap; simulation wedged?");
    GAZE_OBS_HOOK(obsStintSpan("run", runBegin););
}

void
System::resetStats()
{
    for (auto &c : cores)
        c->resetStats();
    for (auto &c : l1ds)
        c->resetStats();
    for (auto &c : l2s)
        c->resetStats();
    llcCache->resetStats();
    dramCtrl->resetStats();
}

std::vector<CoreResult>
System::simulate(uint64_t instr_per_core)
{
    std::vector<uint64_t> base(cfg.numCores);
    std::vector<CoreResult> out(cfg.numCores);
    std::vector<bool> finished(cfg.numCores, false);
    Cycle start = clock;

    for (uint32_t c = 0; c < cfg.numCores; ++c)
        base[c] = cores[c]->retired();

    uint64_t cap = clock + instr_per_core * cfg.maxCyclesPerInstr
                   + 1000000;
    uint32_t remaining = cfg.numCores;

    auto recordFinishers = [&] {
        for (uint32_t c = 0; c < cfg.numCores; ++c) {
            if (finished[c])
                continue;
            if (cores[c]->retired() - base[c] >= instr_per_core) {
                finished[c] = true;
                out[c].instructions = cores[c]->retired() - base[c];
                out[c].cycles = clock - start;
                --remaining;
                GAZE_OBS_HOOK(
                    if (obsTrace && c < obsCoreTids.size())
                        obsTrace->span(obs::kPidSim, obsCoreTids[c],
                                       "core active", start,
                                       clock - start););
            }
        }
    };

    driveLoop(cap, [&] { return remaining == 0; }, recordFinishers);
    GAZE_OBS_HOOK(obsStintSpan("simulate", start););

    if (remaining > 0)
        GAZE_WARN("simulate() hit the cycle cap with ", remaining,
                  " cores unfinished");
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        if (!finished[c]) {
            out[c].instructions = cores[c]->retired() - base[c];
            out[c].cycles = clock - start;
        }
    }
    return out;
}

EngineStats
System::engineStats() const
{
    EngineStats s;
    s.kind = cfg.engine;
    s.cyclesTotal = clock;
    s.cyclesExecuted = executedCycles;
    s.cyclesSkipped = clock - executedCycles;
    s.eventsDispatched = dispatchedEvents;
    s.engineFlips = statEngineFlips;
    s.polledCycles = statPolledCycles;
    return s;
}

} // namespace gaze
