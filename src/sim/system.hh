/**
 * @file
 * Whole-system builder and run loop: N cores with private L1D/L2C, a
 * shared LLC, one DRAM controller, functional virtual memory, and
 * prefetchers attachable at L1D and L2C (the paper's single-level and
 * multi-level configurations).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/dram.hh"
#include "sim/prefetcher.hh"
#include "sim/request_pool.hh"
#include "sim/trace.hh"
#include "sim/vmem.hh"
#include "sim/wake_gate.hh"

namespace gaze
{

namespace obs
{
class Registry;
class IntervalSampler;
class TraceSink;
} // namespace obs

/**
 * How the system advances time. Both engines produce bit-identical
 * metrics (test_engine / test_engine_diff assert it). Polled runs
 * tickAll() every cycle and is the reference implementation and
 * bench_engine baseline; Auto, the default, is the same loop plus one
 * step: when every component's wake gate is closed at the clock, it
 * jumps the clock to the earliest wake hint.
 */
enum class EngineKind
{
    Polled, ///< tickAll() every cycle
    Auto    ///< tickAll() at the earliest open wake gate
};

/** CLI name of an engine ("polled" / "auto"). */
const char *engineKindName(EngineKind kind);

/** Parse an --engine= value; fatal on anything unknown. */
EngineKind parseEngineKind(const std::string &name);

/**
 * Largest core count a System supports. Every front end that accepts a
 * core count (gaze_sim --cores and the campaign spec's "cores" axis,
 * offline or submitted to the daemon) rejects anything above this with
 * a diagnostic before a System is built.
 */
constexpr uint32_t kMaxCores = 64;

/** Full-system configuration (Table II defaults). */
struct SystemConfig
{
    uint32_t numCores = 1; ///< 1..kMaxCores

    /** Simulation engine (results are identical for every kind). */
    EngineKind engine = EngineKind::Auto;

    CoreParams core;

    uint64_t l1dBytes = 48 * 1024;
    uint32_t l1dWays = 12;
    uint32_t l1dLatency = 5;
    uint32_t l1dMshrs = 16;

    uint64_t l2Bytes = 512 * 1024;
    uint32_t l2Ways = 8;
    uint32_t l2Latency = 10;
    uint32_t l2Mshrs = 32;

    uint64_t llcBytesPerCore = 2 * 1024 * 1024;
    uint32_t llcWays = 16;
    uint32_t llcLatency = 20;
    uint32_t llcMshrsPerCore = 64;

    /**
     * When true (default) the DRAM channel/rank count follows the
     * paper's per-core-count scaling; otherwise @p dram is used as-is.
     */
    bool dramAuto = true;
    DramParams dram;

    /** Safety valve: abort a run after this many cycles per instr. */
    uint64_t maxCyclesPerInstr = 2000;
};

/**
 * Simulation-speed counters over a System's lifetime (warmup included;
 * deterministic for a given engine, so they cache and compare cleanly).
 */
struct EngineStats
{
    EngineKind kind = EngineKind::Auto;
    uint64_t cyclesTotal = 0;      ///< simulated cycles (clock)
    uint64_t cyclesExecuted = 0;   ///< cycles tickAll() ran
    uint64_t cyclesSkipped = 0;    ///< idle cycles jumped over
    /** Ticks whose wake gate was open: equal across engines. */
    uint64_t eventsDispatched = 0;

    const char *kindName() const { return engineKindName(kind); }

    double
    skipFraction() const
    {
        return cyclesTotal
                   ? double(cyclesSkipped) / double(cyclesTotal)
                   : 0.0;
    }
};

/** Per-core outcome of a measured simulation interval. */
struct CoreResult
{
    uint64_t instructions = 0;
    uint64_t cycles = 0; ///< cycles this core took to retire them

    double
    ipc() const
    {
        return cycles ? double(instructions) / cycles : 0.0;
    }
};

/** One simulated machine. Construct, attach traces/prefetchers, run. */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Attach the instruction trace for @p cpu (not owned). */
    void setTrace(uint32_t cpu, TraceSource *trace);

    /** Attach (and own) an L1D prefetcher for @p cpu. */
    void setL1Prefetcher(uint32_t cpu, std::unique_ptr<Prefetcher> pf);

    /** Attach (and own) an L2C prefetcher for @p cpu. */
    void setL2Prefetcher(uint32_t cpu, std::unique_ptr<Prefetcher> pf);

    /**
     * Run until every core has retired @p instr_per_core more
     * instructions; prefetchers keep training. Used for warmup.
     */
    void run(uint64_t instr_per_core);

    /** Zero all statistics (end of warmup). */
    void resetStats();

    /**
     * Measured run: like run(), but records the cycle at which each
     * core individually reaches its instruction target, which is what
     * per-core IPC is computed from (early finishers keep replaying,
     * as in the paper).
     */
    std::vector<CoreResult> simulate(uint64_t instr_per_core);

    uint32_t numCores() const { return cfg.numCores; }
    Cycle cycle() const { return clock; }

    /**
     * Obs scheme labels in id order: schemeNames()[i] is the label
     * ("<scheme>@l1" / "<scheme>@l2") of scheme id i+1. Ids are
     * assigned in attach order, shared by every core's copy of a
     * scheme, so they are deterministic for a given configuration.
     */
    const std::vector<std::string> &schemeNames() const
    {
        return schemeLabels;
    }

    /**
     * Bind every counter and occupancy gauge of this system into
     * @p reg under the obs naming scheme (core<i>.*, l1d<i>.*,
     * l2<i>.*, llc.*, dram.*, engine.*). The registry must not outlive
     * the system.
     */
    void bindObsCounters(obs::Registry *reg);

    /**
     * Attach (or detach, with null) an interval sampler. Pure
     * observation: the engine calls IntervalSampler::advanceTo before
     * executing each cycle and never wakes for a boundary.
     */
    void setObsSampler(obs::IntervalSampler *sampler);

    /**
     * Attach a trace sink for simulated-time spans (run and simulate
     * phases, per-core measured activity, DRAM utilization samples);
     * @p label prefixes this system's track names.
     */
    void setObsTrace(obs::TraceSink *sink, const std::string &label);

    /** Simulation-speed counters (never reset by resetStats). */
    EngineStats engineStats() const;

    /** The shared MSHR-waiter pool (leak checks in tests). */
    const RequestPool &requestPool() const { return pool; }

    Core &core(uint32_t cpu) { return *cores[cpu]; }
    Cache &l1d(uint32_t cpu) { return *l1ds[cpu]; }
    Cache &l2(uint32_t cpu) { return *l2s[cpu]; }
    Cache &llc() { return *llcCache; }
    Dram &dram() { return *dramCtrl; }
    VirtualMemory &vmem() { return vm; }

    const SystemConfig &config() const { return cfg; }

  private:
    /**
     * Tick, in the fixed order (cores, L1Ds, L2s, LLC, DRAM), every
     * component whose wake gate is open at the current cycle, then
     * advance the clock and the speed counters.
     */
    void tickAll();

    /**
     * Earliest wake hint over every component (kNeverWake if none).
     * Stops at the first gate already open at the clock, whose hint
     * is then returned: no jump is possible.
     */
    Cycle earliestWake() const;

    /**
     * Run cycles until @p done returns true (checked between cycles)
     * or the clock reaches @p cap; @p post runs after every executed
     * cycle. Returns false at the cap. Auto jumps the clock over
     * cycles on which every wake gate is closed.
     */
    template <typename DoneFn, typename PostCycleFn>
    bool driveLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post);

    /** Obs id for scheme @p name attached at @p level (assigns new). */
    uint16_t schemeIdFor(const std::string &name, uint32_t level);

    /**
     * Obs trace: emit one span [begin, clock) on the engine track plus
     * a DRAM-utilization counter sample. No-op without a sink.
     */
    void obsPhaseSpan(const char *name, Cycle begin);

    SystemConfig cfg;
    Cycle clock = 0;

    // The pool is declared before the components so it outlives them:
    // component destructors return waiter chains to it.
    RequestPool pool;

    // Engine-speed accounting (see EngineStats).
    uint64_t executedCycles = 0;
    uint64_t dispatchedEvents = 0;

    VirtualMemory vm;
    std::unique_ptr<Dram> dramCtrl;
    std::unique_ptr<Cache> llcCache;
    std::vector<std::unique_ptr<Cache>> l2s;
    std::vector<std::unique_ptr<Cache>> l1ds;
    std::vector<std::unique_ptr<Core>> cores;
    std::vector<std::unique_ptr<Prefetcher>> ownedPrefetchers;

    /** Every component's wake gate, in tickAll() order. */
    std::vector<const WakeGate *> gates;

    // Obs attachment points (see src/obs/): null/empty when unused.
    obs::IntervalSampler *obsSampler = nullptr;
    obs::TraceSink *obsTrace = nullptr;
    uint32_t obsEngineTid = 0;
    uint32_t obsDramTid = 0;
    std::vector<uint32_t> obsCoreTids;
    std::vector<std::string> schemeLabels;
};

} // namespace gaze
