/**
 * @file
 * Set-associative, non-inclusive writeback cache with MSHRs, separate
 * read/write/prefetch queues, per-level prefetch fill targeting, and the
 * prefetch accounting the paper's metrics need (useful / useless / late,
 * attributed at each prefetch's target fill level).
 *
 * Timing model (ChampSim-like): a bounded number of tag lookups per
 * cycle; hits respond after the configured access latency; misses
 * allocate an MSHR and forward downwards, and the fill propagates back
 * up through every cache on the path, allocating wherever
 * level >= fillLevel.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "sim/mshr_table.hh"
#include "sim/prefetcher.hh"
#include "sim/replacement.hh"
#include "sim/request.hh"
#include "sim/request_pool.hh"
#include "sim/wake_gate.hh"

namespace gaze
{

class VirtualMemory;

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    uint32_t level = levelL1;
    uint32_t sets = 64;
    uint32_t ways = 8;

    /** Access (hit) latency in cycles. */
    uint32_t latency = 5;

    uint32_t mshrs = 16;
    uint32_t rqSize = 64;
    uint32_t wqSize = 64;
    uint32_t pqSize = 8;

    /** Derive sets from a byte size and associativity. */
    static uint32_t
    setsFor(uint64_t bytes, uint32_t ways)
    {
        return static_cast<uint32_t>(bytes / (uint64_t(ways) * blockSize));
    }
};

/** Prefetch/demand counters for one cache. */
struct CacheStats
{
    uint64_t loadAccess = 0;
    uint64_t loadHit = 0;
    uint64_t loadMiss = 0;
    uint64_t rfoAccess = 0;
    uint64_t rfoHit = 0;
    uint64_t rfoMiss = 0;

    /**
     * Of loadMiss/rfoMiss: demands that merged into an in-flight
     * prefetch MSHR (the prefetch was late, but still hid part of the
     * miss). Distinct sub-counters, not a reclassification — the
     * plain miss counters keep their historical meaning, and
     * loadMissLate + rfoMissLate == pfLate at every level.
     */
    uint64_t loadMissLate = 0;
    uint64_t rfoMissLate = 0;
    uint64_t wbAccess = 0;
    uint64_t wbHit = 0;
    uint64_t wbMiss = 0;

    /** Prefetch requests accepted into the PQ at this level. */
    uint64_t pfIssued = 0;
    /** Prefetch requests rejected because the PQ was full. */
    uint64_t pfDroppedFull = 0;
    /** Prefetch requests whose target was already pending in the PQ. */
    uint64_t pfDroppedDup = 0;
    /** Prefetch requests dropped on a tag hit (redundant prefetches). */
    uint64_t pfDroppedHit = 0;
    /** Prefetch requests dropped for want of an MSHR (LLC only). */
    uint64_t pfDroppedMshr = 0;
    /** MSHR-full events on the prefetch path (congestion signal). */
    uint64_t pfMshrWait = 0;
    /** Prefetches demoted one level out because MSHRs were full. */
    uint64_t pfDemoted = 0;
    /** Blocks filled with the prefetch bit at this level. */
    uint64_t pfFilled = 0;
    /** Prefetched blocks demanded before eviction. */
    uint64_t pfUseful = 0;
    /** Prefetched blocks evicted untouched. */
    uint64_t pfUseless = 0;
    /** Demand accesses that merged into an in-flight prefetch MSHR. */
    uint64_t pfLate = 0;

    uint64_t mshrMerge = 0;
    uint64_t mshrFullStall = 0;
    uint64_t writebacksSent = 0;

    /** Sum of demand miss latencies (allocation -> fill), and count. */
    uint64_t demandMissLatencySum = 0;
    uint64_t demandMissLatencyCnt = 0;

    uint64_t demandAccess() const { return loadAccess + rfoAccess; }
    uint64_t demandHit() const { return loadHit + rfoHit; }
    uint64_t demandMiss() const { return loadMiss + rfoMiss; }

    double
    avgDemandMissLatency() const
    {
        return demandMissLatencyCnt
            ? double(demandMissLatencySum) / demandMissLatencyCnt : 0.0;
    }

    void reset() { *this = CacheStats{}; }
};

/**
 * Obs attribution: lifecycle counters for one prefetching scheme at
 * one cache (indexed by the System-assigned scheme id). Pure
 * additions next to the aggregate CacheStats counters.
 */
struct SchemeStats
{
    uint64_t issued = 0;   ///< accepted into this cache's PQ
    uint64_t filled = 0;   ///< blocks filled with the prefetch bit
    uint64_t useful = 0;   ///< demanded before eviction
    uint64_t late = 0;     ///< demand merged while still in flight
    uint64_t useless = 0;  ///< evicted untouched
    /** Fill-to-first-demand-hit latency (timeliness), sum and count. */
    uint64_t fillToUseSum = 0;
    uint64_t fillToUseCnt = 0;

    void
    add(const SchemeStats &o)
    {
        issued += o.issued;
        filled += o.filled;
        useful += o.useful;
        late += o.late;
        useless += o.useless;
        fillToUseSum += o.fillToUseSum;
        fillToUseCnt += o.fillToUseCnt;
    }
};

/**
 * One cache level. Requests enter via sendRequest (queue-routed by
 * type); completions from the lower level arrive via recvFill and
 * propagate upwards to each waiting requester.
 */
class Cache final : public MemoryDevice, public FillReceiver
{
  public:
    /**
     * @param pool shared Request pool for MSHR waiter nodes; when
     *        null the cache owns a private one (standalone caches in
     *        unit tests).
     */
    Cache(const CacheParams &params, MemoryDevice *lower,
          const Cycle *clock, RequestPool *pool = nullptr);

    ~Cache() override;

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Attach a prefetcher to this level (may be null). Must come
     * before the first fill: fills without a prefetcher skip the
     * vaddr it would read.
     */
    void setPrefetcher(Prefetcher *pf, VirtualMemory *vmem,
                       const Dram *dram, uint32_t cpu);

    // MemoryDevice
    bool sendRequest(const Request &req) override;
    void tick() override;

    // FillReceiver
    void recvFill(const Request &req) override;

    /**
     * Prefetcher-facing issue hook (called via
     * Prefetcher::issuePrefetch). Translates virtual targets, aligns,
     * and enqueues into the PQ.
     */
    bool issuePrefetch(Addr addr, uint32_t fill_level, bool virt,
                       uint32_t cpu);

    /** True when the block containing @p paddr is resident. */
    bool present(Addr paddr) const;

    /** Current cycle (shared system clock). */
    Cycle now() const { return *clock; }

    /** The tick entry gate (System scans the hints to skip cycles). */
    const WakeGate &wakeGate() const { return gate; }

    /**
     * Earliest future cycle at which tick() could have any effect:
     * next cycle while the last tick left work that could progress
     * (see tick()); the next response-ready cycle otherwise;
     * kNeverWake when only a fill, a new request or a lower level's
     * freed slot can create work.
     */
    Cycle nextWakeCycle() const;

    const CacheParams &params() const { return cfg; }

    /**
     * Counters, settled: the refusals of ticks the wake gate skipped,
     * this cache's own and those its sleeping sender caches would have
     * caused here, are counted through the previous cycle first, which
     * is what ungated ticks would have shown.
     */
    const CacheStats &
    stats() const
    {
        const_cast<Cache *>(this)->settleWithSenders(now());
        return stat;
    }

    /**
     * Count the refusals the ticks skipped before cycle @p until would
     * have repeated: this cache's mshrFullStall, pfMshrWait and
     * pfDroppedFull, and the lower cache's pfDroppedFull for refused
     * prefetch sends. Exact, because a cache sleeps on refusals only
     * while its state is frozen until a wake-up (see tick()).
     */
    void settle(Cycle until);

    /**
     * Register an upper component that sends here; each sender's
     * constructor calls this. @p gate is woken at now + 1 when a full
     * read or prefetch queue frees a slot after refusing a request,
     * and @p cache (null for a core) is settled before this cache's
     * counters are read or reset.
     */
    void addSender(WakeGate *gate, Cache *cache);

    /** Per-scheme lifecycle counters, indexed by scheme id (0 unused). */
    const std::vector<SchemeStats> &schemeStats() const
    {
        return schemeStat;
    }

    /**
     * Zero the counters. Skipped refusals are settled first, so none
     * from before the reset is counted after it, and those a sleeping
     * sender caused here land before the zeroing.
     */
    void
    resetStats()
    {
        settleWithSenders(now());
        stat.reset();
        for (auto &s : schemeStat)
            s = SchemeStats{};
    }

    const std::string &name() const { return cfg.name; }
    uint32_t level() const { return cfg.level; }

    /** Number of in-flight MSHR entries (tests/backpressure checks). */
    size_t mshrOccupancy() const { return mshr.size(); }

    size_t rqOccupancy() const { return readQ.size(); }
    size_t pqOccupancy() const { return prefetchQ.size(); }

    Prefetcher *prefetcher() const { return pf; }

  private:
    /**
     * Tag lookups per cycle, shared by the RQ and the PQ. The WQ
     * drains one writeback per cycle outside this budget.
     */
    static constexpr uint32_t kTagPorts = 2;

    /**
     * Block state lives in two split arrays: a flat tag word per block
     * (block-aligned paddr with valid/dirty/prefetch packed into the
     * low, always-zero address bits) and a cold metadata record. A set
     * scan touches only the tag array — ways x 8B, one cache line for
     * the default 8-way geometry — instead of 40B-wide block structs.
     */
    static constexpr Addr kBlkValid = 1;
    static constexpr Addr kBlkDirty = 2;
    static constexpr Addr kBlkPrefetch = 4;
    static constexpr Addr kBlkFlags = kBlkValid | kBlkDirty | kBlkPrefetch;
    static_assert(blockSize >= 8, "tag words need 3 low flag bits");

    /** "No such block" result from lookupSlot(). */
    static constexpr size_t kNoSlot = ~size_t(0);

    /**
     * Cold per-block metadata, written only where it is read: vaddr
     * feeds the attached prefetcher (onEvict, FillEvent), and
     * fillCycle/pfScheme are read only while the block's prefetch bit
     * is set. A fill writes the record when it sets the prefetch bit
     * or a prefetcher is attached; a hit updates vaddr only for a
     * prefetcher. So the LLC's demand traffic never touches it.
     */
    struct BlockMeta
    {
        Addr vaddr = 0;         ///< block-aligned vaddr of last toucher
        Cycle fillCycle = 0;    ///< fill time, for fill-to-use latency
        uint16_t pfScheme = 0;  ///< issuing scheme id while prefetch set
    };

    struct MshrEntry
    {
        Request downstream;          ///< request sent to the lower level
        /** Waiting requesters: a pooled, insertion-ordered list. */
        RequestPool::Node *waitersHead = nullptr;
        RequestPool::Node *waitersTail = nullptr;
        bool demanded = false;       ///< a demand access depends on it
        bool wasPrefetchOnly = false;
        bool issuedToLower = false;
        Cycle allocCycle = 0;
    };

    struct PendingResponse
    {
        Cycle ready;
        uint64_t seq; ///< schedule order, the tie-break on equal ready
        Request req;
        bool operator<(const PendingResponse &o) const
        {
            return ready != o.ready ? ready < o.ready : seq < o.seq;
        }
    };

    uint32_t setIndex(Addr paddr) const;

    /** Flat block index of the resident block, or kNoSlot. */
    size_t lookupSlot(Addr paddr) const;

    /** Fill a block; evicts (with writeback) as needed. */
    void fillBlock(const Request &req, bool mark_prefetch);

    /** Queue @p req's response on @p fifo, to arrive at @p when. */
    void scheduleResponse(RingBuffer<PendingResponse> &fifo,
                          const Request &req, Cycle when);
    void deliverResponses();

    /** Outcome of processing the PQ head. */
    enum class PfOutcome
    {
        Done,     ///< consumed (issued, merged, dropped, or forwarded)
        Refused,  ///< the lower level refused it; retry next cycle
        MshrWait  ///< waits for an MSHR (pfMshrWait counted); retry
    };

    bool handleRead(const Request &req);
    bool handleWrite(const Request &req);
    PfOutcome handlePrefetch(const Request &req);

    /** Allocate or merge into an MSHR; false => caller must stall. */
    bool missToMshr(const Request &req);

    void retryUnissuedMshrs();

    /**
     * Send @p req to the lower level (not writebacks, which are never
     * refused), recording a refusal for the wake hint and the replay.
     */
    bool sendLower(const Request &req);

    /** Pop the head of @p q, waking the senders if it had refused any. */
    void popHead(RingBuffer<Request> &q, bool &refused);

    /** Settle every sender cache, then this one (stats, resetStats). */
    void settleWithSenders(Cycle until);

    void notifyPrefetcherAccess(const Request &req, bool hit);

    /** Append @p req to @p e's pooled waiter list. */
    void appendWaiter(MshrEntry &e, const Request &req);

    CacheParams cfg;
    MemoryDevice *lower;
    /** The lower level when it is a cache, which wakes this one. */
    Cache *lowerCache;
    const Cycle *clock;

    WakeGate gate;

    /** Registered senders (see addSender), in registration order. */
    std::vector<WakeGate *> senderGates;
    std::vector<Cache *> senderCaches;

    /** A full RQ / PQ refused a sender since its last pop. */
    bool rqRefused = false;
    bool pqRefused = false;

    /**
     * What each tick skipped since the last one would count: the
     * refusals that ended the last tick, which a sleeping cache
     * repeats unchanged until something wakes it.
     */
    struct StallRate
    {
        uint32_t mshrFullStall = 0;
        uint32_t pfMshrWait = 0;
        uint32_t pfDroppedFull = 0;
        uint32_t lowerPfDroppedFull = 0; ///< refused prefetch sends
    };
    StallRate stallRate;

    /** The last tick left work that can progress without a wake-up. */
    bool pollNext = false;

    /** First cycle neither a tick nor settle() has counted. */
    Cycle settleFrom = 0;

    RequestPool *pool;
    std::unique_ptr<RequestPool> ownedPool;

    /** MSHRs whose downstream send is still pending (retry set). */
    uint32_t unissuedMshrs = 0;

    std::vector<Addr> tagArr;
    /**
     * Per set, bit w set when way w holds a valid block. No block is
     * ever invalidated, so a fill sets its way's bit and nothing
     * clears it, and the fill path need not scan the tags for it.
     */
    std::vector<uint64_t> validMask;
    std::vector<BlockMeta> meta;
    LruPolicy lru;

    RingBuffer<Request> readQ;
    RingBuffer<Request> writeQ;
    RingBuffer<Request> prefetchQ;

    /** Flat open-addressed MSHR map; capacity = cfg.mshrs. */
    MshrTable<MshrEntry> mshr;

    /**
     * Scheduled responses, in two FIFOs: tag hits (ready at now +
     * latency) and fill forwards to MSHR waiters (ready at now + 1).
     * Each delay is a per-cache constant and the clock never goes
     * back, so each FIFO is sorted by (ready, seq), and merging the
     * two heads delivers every response in (ready, seq) order.
     */
    RingBuffer<PendingResponse> hitResponses;
    RingBuffer<PendingResponse> fillResponses;
    uint64_t responseSeq = 0;

    /** Counter slot for @p scheme_id, growing the table on demand. */
    SchemeStats &
    schemeSlot(uint16_t scheme_id)
    {
        if (schemeStat.size() <= scheme_id)
            schemeStat.resize(size_t(scheme_id) + 1);
        return schemeStat[scheme_id];
    }

    Prefetcher *pf = nullptr;
    VirtualMemory *vmem = nullptr;

    CacheStats stat;
    std::vector<SchemeStats> schemeStat;
};

} // namespace gaze
