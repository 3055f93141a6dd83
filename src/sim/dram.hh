/**
 * @file
 * DDR4-style DRAM controller: per-channel read/write queues with
 * FR-FCFS scheduling, bank row-buffer state, write-drain mode, and a
 * shared data bus whose occupancy produces the bandwidth contention the
 * paper's multi-core and MTPS-sweep results depend on.
 *
 * Timing follows Table II: tRP = tRCD = tCAS = 12.5ns, 3200 MTPS over a
 * 64-bit bus (a 64B line = 8 transfers = 2.5ns of bus time), 8 banks per
 * rank, 2KB row buffer per bank.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "sim/request.hh"
#include "sim/wake_gate.hh"

namespace gaze
{

/** DRAM organization and timing. */
struct DramParams
{
    uint32_t channels = 1;
    uint32_t ranksPerChannel = 1;
    uint32_t banksPerRank = 8;
    uint64_t rowBufferBytes = 2048;

    /** Mega-transfers per second on the data bus. */
    double mtps = 3200.0;

    /** CPU frequency, to convert ns to core cycles. */
    double cpuGhz = 4.0;

    uint32_t busWidthBits = 64;

    double tRpNs = 12.5;
    double tRcdNs = 12.5;
    double tCasNs = 12.5;

    uint32_t rqSize = 64; ///< per channel
    uint32_t wqSize = 64; ///< per channel
    uint32_t wqDrainHigh = 48;
    uint32_t wqDrainLow = 16;

    /** Channel/rank scaling the paper uses per core count (Table II). */
    static DramParams forCores(uint32_t cores);
};

/** Aggregate DRAM statistics. */
struct DramStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rowHits = 0;
    uint64_t rowMisses = 0;
    uint64_t busBusyCycles = 0;
    uint64_t readLatencySum = 0; ///< enqueue -> data, demand+prefetch

    double
    rowHitRate() const
    {
        uint64_t t = rowHits + rowMisses;
        return t ? double(rowHits) / t : 0.0;
    }

    double
    avgReadLatency() const
    {
        return reads ? double(readLatencySum) / reads : 0.0;
    }

    void reset() { *this = DramStats{}; }
};

/** The memory controller: one instance serves the whole system. */
class Dram final : public MemoryDevice
{
  public:
    Dram(const DramParams &params, const Cycle *clock);

    bool sendRequest(const Request &req) override;
    void tick() override;

    const DramStats &stats() const { return stat; }
    void resetStats();

    /**
     * Recent data-bus utilization in [0,1], averaged over the last
     * completed epoch (~8K cycles). DSPatch keys its CovP/AccP choice
     * off this. Epoch boundaries the controller slept across are
     * accounted on the fly, so the answer is identical to the polled
     * engine's no matter how many idle cycles were skipped.
     */
    double recentUtilization() const;

    /** The tick entry gate (System scans the hints to skip cycles). */
    const WakeGate &wakeGate() const { return gate; }

    /**
     * Earliest future cycle a tick could issue a command or deliver a
     * completion: per channel, the first cycle at which the queue the
     * drain hysteresis selects holds a request whose bank is ready
     * while the data bus is within the issue horizon; kNeverWake when
     * no channel has such a request and the completion heap is empty
     * (sendRequest wakes the controller). Queues, banks and the bus
     * change only in a tick or a sendRequest, so the bound is exact;
     * settle() replays what the cycles it skips would have done.
     */
    Cycle nextWakeCycle() const;

    const DramParams &params() const { return cfg; }

    /** Total read-queue occupancy across channels (tests). */
    size_t rqOccupancy() const;

  private:
    struct Bank
    {
        int64_t openRow = -1;
        Cycle ready = 0;
    };

    struct QueuedRequest
    {
        Request req;
        Cycle enqueue;
        uint64_t row;
        uint32_t bank;
    };

    struct Channel
    {
        RingBuffer<QueuedRequest> rq;
        RingBuffer<QueuedRequest> wq;
        std::vector<Bank> banks;
        Cycle busFree = 0;
        bool draining = false;

        /** Row hits served past an older request (reorder bound). */
        uint32_t rowHitBypasses = 0;
    };

    struct Completion
    {
        Cycle ready;
        uint64_t seq;
        Request req;
        bool operator>(const Completion &o) const
        {
            return ready != o.ready ? ready > o.ready : seq > o.seq;
        }
    };

    struct Decoded
    {
        uint32_t channel;
        uint32_t bank;
        uint64_t row;
    };

    Decoded decode(Addr paddr) const;
    void serviceChannel(Channel &ch);

    /**
     * Write-drain hysteresis on the channel's current queue sizes:
     * start when the WQ is nearly full (or reads are absent), stop
     * when drained low. Applying it twice to the same sizes gives the
     * same answer, which is what lets settle() replay a run of
     * skipped cycles with one application.
     */
    bool drainState(const Channel &ch) const;

    /** The queue a tick services under drain state @p draining. */
    template <typename Ch>
    static auto &
    servicedQueue(Ch &ch, bool draining)
    {
        return draining && !ch.wq.empty() ? ch.wq : ch.rq;
    }

    /**
     * Account for the cycles from settleFrom to now()-1 that no tick
     * ran. While any queue holds a request the reference schedule
     * ticks every cycle; nextWakeCycle() skips only cycles whose tick
     * issues nothing, and each of them still applies the hysteresis
     * (same sizes, so once is enough) and, when the bus is within the
     * horizon, runs a fruitless scan whose choose() zeroes the
     * reorder-bound counter. Called at tick entry and before
     * sendRequest enqueues, so the replay sees the sizes the skipped
     * cycles saw.
     */
    void settle();

    /**
     * Process epoch boundaries that fell strictly before the current
     * cycle while the controller slept (the polled engine handles
     * each at its own cycle; idle epochs publish a zero utilization).
     */
    void catchUpEpochs();

    /** Candidate pair found by a queue scan (q.size() = none). */
    struct Pick
    {
        size_t rowHit;
        size_t oldest;
    };

    /**
     * Scan @p q for the first ready row hit and the oldest ready
     * request. When @p demands_only, prefetch-typed requests are
     * invisible (demand-over-prefetch read priority).
     */
    Pick scanQueue(const Channel &ch,
                   const RingBuffer<QueuedRequest> &q,
                   bool demands_only) const;

    /**
     * FR-FCFS with a reorder bound: serve ready row hits, but after
     * @ref rowHitBypassLimit consecutive bypasses of an older ready
     * request, serve the oldest so nothing starves. (An age cap is
     * the wrong tool: under heavy queueing every request exceeds any
     * fixed age and the policy would collapse to row-missing FCFS.)
     */
    size_t choose(Channel &ch, const Pick &p, size_t none) const;

    static constexpr uint32_t rowHitBypassLimit = 8;

    Cycle now() const { return *clock; }

    DramParams cfg;
    const Cycle *clock;

    WakeGate gate;

    std::vector<Channel> channels;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>> completions;
    uint64_t completionSeq = 0;

    uint32_t banksPerChannel;
    uint64_t blocksPerRow;
    Cycle tRp, tRcd, tCas, burst;

    /** A channel issues only while busFree <= now + horizon. */
    Cycle horizon = 0;

    /** First cycle neither a tick nor settle() has accounted for. */
    Cycle settleFrom = 0;

    DramStats stat;

    // Utilization epoch tracking.
    static constexpr Cycle epochLength = 8192;
    Cycle epochStart = 0;
    uint64_t epochBusy = 0;
    double lastEpochUtil = 0.0;
};

} // namespace gaze
