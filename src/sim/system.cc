#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace gaze
{

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
    : cfg(config), vm(34)
{
    GAZE_ASSERT(cfg.numCores >= 1 && cfg.numCores <= kMaxCores,
                "bad core count");

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
        l1ds.push_back(std::make_unique<Cache>(l1_p, l2s.back().get(),
                                               &clock, &pool));

        cores.push_back(std::make_unique<Core>(cfg.core, c,
                                               l1ds.back().get(), &vm,
                                               &clock));
    }

    for (const auto &c : cores)
        gates.push_back(&c->wakeGate());
    for (const auto &c : l1ds)
        gates.push_back(&c->wakeGate());
    for (const auto &c : l2s)
        gates.push_back(&c->wakeGate());
    gates.push_back(&llcCache->wakeGate());
    gates.push_back(&dramCtrl->wakeGate());
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
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
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
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
        bindCache("l1d" + n, l1ds[c].get());
        bindCache("l2" + n, l2s[c].get());
    }
    bindCache("llc", llcCache.get());

    {
        const DramStats &s = dramCtrl->stats();
#define GAZE_OBS_CACHE_STAT(f)
#define GAZE_OBS_CORE_STAT(f)
#define GAZE_OBS_DRAM_STAT(f) reg->bindCounter("dram." #f, &s.f);
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
    }

    // Engine-speed counters: deterministic per engine kind, not across
    // kinds (the polled engine executes every cycle), so cross-engine
    // comparisons filter "engine.*" out.
    reg->bindCounter("engine.cycle", &clock);
    reg->bindCounter("engine.executedCycles", &executedCycles);
    reg->bindCounter("engine.dispatchedEvents", &dispatchedEvents);
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
System::settleCounters(Cycle through)
{
    Cycle until = std::min(through + 1, clock);
    for (auto &c : cores)
        c->settle(until);
    for (auto &c : l1ds)
        c->settle(until);
    for (auto &c : l2s)
        c->settle(until);
    llcCache->settle(until);
}

void
System::obsPhaseSpan(const char *name, Cycle begin)
{
    if (!obsTrace || clock < begin)
        return;
    obsTrace->span(obs::kPidSim, obsEngineTid, name, begin,
                   clock - begin);
    obsTrace->counter(obs::kPidSim, obsDramTid, "dram_util", clock,
                      dramCtrl->recentUtilization());
}

void
System::tickAll()
{
    // A tick returns at a closed gate, so only open gates get a call;
    // a gate can still open mid-pass (a core's send wakes its L1D).
    uint64_t ticked = 0;
    auto tickIfDue = [&](auto &c) {
        if (c.wakeGate().due(clock)) {
            c.tick();
            ++ticked;
        }
    };
    for (auto &c : cores)
        tickIfDue(*c);
    for (auto &c : l1ds)
        tickIfDue(*c);
    for (auto &c : l2s)
        tickIfDue(*c);
    tickIfDue(*llcCache);
    tickIfDue(*dramCtrl);
    dispatchedEvents += ticked;
    ++executedCycles;
    ++clock;
}

Cycle
System::earliestWake() const
{
    Cycle m = kNeverWake;
    for (const WakeGate *g : gates) {
        m = std::min(m, g->next());
        if (m <= clock)
            break;
    }
    return m;
}

template <typename DoneFn, typename PostCycleFn>
bool
System::driveLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    const bool jump = cfg.engine == EngineKind::Auto;
    while (!done()) {
        // Auto's one step beyond polling: while every wake gate is
        // closed, each polled tick would return at its gate, so jump
        // to the earliest hint, or to the cap when no component will
        // ever wake again (a wedged run).
        if (jump)
            clock = std::max(clock, std::min(earliestWake(), cap));
        if (clock >= cap)
            return false;
        if (obsSampler)
            obsSampler->advanceTo(clock,
                                  [this](Cycle b) { settleCounters(b); });
        tickAll();
        post();
    }
    return true;
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

    Cycle runBegin = clock;
    if (!driveLoop(cap, all_done, [] {}))
        GAZE_WARN("run() hit the cycle cap; simulation wedged?");
    obsPhaseSpan("run", runBegin);
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
                if (obsTrace && c < obsCoreTids.size())
                    obsTrace->span(obs::kPidSim, obsCoreTids[c],
                                   "core active", start, clock - start);
            }
        }
    };

    driveLoop(cap, [&] { return remaining == 0; }, recordFinishers);
    obsPhaseSpan("simulate", start);

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
    return s;
}

} // namespace gaze
