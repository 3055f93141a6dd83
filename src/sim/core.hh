/**
 * @file
 * Simplified out-of-order core: a ROB-windowed trace executor with
 * bounded load/store queues. Non-memory instructions retire at full
 * width; loads block retirement at the ROB head until their data
 * returns, so memory-level parallelism is limited by the ROB window,
 * the LQ, and the L1D's MSHRs — the properties a prefetching study
 * needs from the core (Table II: 4-wide, 352-entry ROB, 128/72 LQ/SQ).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "sim/request.hh"
#include "sim/trace.hh"
#include "sim/wake_gate.hh"

namespace gaze
{

class VirtualMemory;

/** Core microarchitecture parameters (Table II defaults). */
struct CoreParams
{
    uint32_t fetchWidth = 4;
    uint32_t retireWidth = 4;
    uint32_t robSize = 352;
    uint32_t lqSize = 128;
    uint32_t sqSize = 72;

    /** Loads the core can present to the L1D per cycle. */
    uint32_t loadPorts = 2;
};

/** Retired-instruction / cycle counters. */
struct CoreStats
{
    uint64_t instructions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t traceReplays = 0;
    uint64_t robFullCycles = 0;
    uint64_t frontendStallCycles = 0;

    void reset() { *this = CoreStats{}; }
};

/** One simulated hardware thread executing a TraceSource. */
class Core final : public FillReceiver
{
  public:
    Core(const CoreParams &params, uint32_t cpu_id,
         MemoryDevice *l1d, VirtualMemory *vmem, const Cycle *clock);

    /** Bind the instruction trace (required before ticking). */
    void setTrace(TraceSource *trace);

    /** Advance one cycle: retire, issue, dispatch. */
    void tick();

    // FillReceiver: load/store completions from the L1D.
    void recvFill(const Request &req) override;

    /** Total retired instructions since construction. */
    uint64_t retired() const { return retiredCount; }

    /** The tick entry gate (System scans the hints to skip cycles). */
    const WakeGate &wakeGate() const { return gate; }

    /**
     * Earliest future cycle a tick could retire, issue, or dispatch
     * anything; kNeverWake when only a fill can unblock the pipeline
     * (recvFill wakes the core then).
     */
    Cycle nextWakeCycle() const;

    /**
     * Counters, settled: stall cycles accrue lazily across gate-
     * skipped stretches (see catchUpStallCounters), so reading
     * through here first accounts everything up to the previous
     * cycle — exactly what ungated ticks would have shown. The
     * settle arithmetic is a pure function of component state, so it
     * cannot perturb engine bit-identity.
     */
    const CoreStats &
    stats() const
    {
        auto *self = const_cast<Core *>(this);
        self->catchUpStallCounters();
        if (now() > 0)
            self->lastTickCycle = std::max(lastTickCycle, now() - 1);
        return stat;
    }

    /**
     * Zero the counters. The skipped-cycle catch-up baseline resets
     * with them so stall cycles skipped before the reset are not
     * re-attributed after it.
     */
    void
    resetStats()
    {
        stat.reset();
        lastTickCycle = now() > 0 ? now() - 1 : 0;
    }

    uint32_t cpuId() const { return cpu; }

    /** Outstanding-load count (tests). */
    uint32_t outstandingLoads() const { return lqOccupancy; }

  private:
    struct RobEntry
    {
        uint64_t id;
        TraceOp op;
        Addr vaddr;
        PC pc;
        bool issued = false;
        bool done = false;
    };

    static constexpr uint64_t storeTokenBit = 1ULL << 63;

    void retire();
    void issueLoads();
    void dispatch();

    /**
     * Account the stall counters for cycles the wake gate skipped: an
     * ungated tick would increment robFullCycles/frontendStallCycles
     * every idle cycle, so a sleeping core adds the arithmetic
     * equivalent on wake-up. The core state is provably unchanged
     * across the skipped window (it slept because no tick could act,
     * and any fill wakes it for the following cycle), which makes the
     * catch-up exact, not an estimate.
     */
    void catchUpStallCounters();

    Cycle now() const { return *clock; }

    CoreParams cfg;
    uint32_t cpu;
    MemoryDevice *l1d;
    VirtualMemory *vmem;
    const Cycle *clock;
    TraceSource *trace = nullptr;

    std::deque<RobEntry> rob;
    std::deque<size_t> pendingLoadOffsets; ///< ROB ids awaiting issue
    uint64_t nextInstrId = 0;

    uint32_t lqOccupancy = 0;
    uint32_t sqOccupancy = 0;
    Cycle frontendStallUntil = 0;

    WakeGate gate;
    Cycle lastTickCycle = 0;      ///< catch-up baseline
    bool issueBlockedOnL1d = false; ///< l1d rejected a send this tick

    uint64_t retiredCount = 0;
    CoreStats stat;
};

} // namespace gaze
