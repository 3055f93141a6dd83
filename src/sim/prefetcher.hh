/**
 * @file
 * The prefetcher interface every scheme in this repo implements (Gaze and
 * the eight baselines). It mirrors ChampSim's module hooks: operate on
 * demand accesses, observe fills and evictions, tick once per cycle, and
 * issue prefetches through the attached cache.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "sim/request.hh"

namespace gaze
{

class Cache;
class VirtualMemory;
class Dram;

/** A demand access observed by a prefetcher at its attach point. */
struct DemandAccess
{
    /** Virtual address (valid at L1D attach; 0 below L1). */
    Addr vaddr = 0;

    /** Physical address. */
    Addr paddr = 0;

    /** PC of the load/store. */
    PC pc = 0;

    /** Did the access hit in the attached cache? */
    bool hit = false;

    /** Load or Rfo. */
    AccessType type = AccessType::Load;

    /** Current cycle. */
    Cycle cycle = 0;

    /** Originating core. */
    uint32_t cpu = 0;
};

/** A fill observed by a prefetcher at its attach point. */
struct FillEvent
{
    Addr paddr = 0;
    Addr vaddr = 0;

    /** PC of the demand that caused the fill (0 for pure prefetches). */
    PC pc = 0;

    /** Block was filled with the prefetch bit set at this level. */
    bool prefetch = false;

    /** Cycles between MSHR allocation and fill (Berti's fetch latency). */
    Cycle latency = 0;

    /** Block address evicted to make room (0 if the way was free). */
    Addr evictedPaddr = 0;

    Cycle cycle = 0;
};

/**
 * Environment handed to a prefetcher when it is attached to a cache.
 * The bandwidth monitor is the DRAM controller (DSPatch consults it);
 * it may be null in unit tests.
 */
struct PrefetcherContext
{
    Cache *cache = nullptr;
    VirtualMemory *vmem = nullptr;
    const Dram *dram = nullptr;
    uint32_t cpu = 0;
    uint32_t level = levelL1;
};

/** Base class for all prefetching schemes. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Scheme name as used by the factory and result tables. */
    virtual std::string name() const = 0;

    /** Called once when the scheme is bound to a cache. */
    virtual void
    attach(const PrefetcherContext &ctx)
    {
        context = ctx;
    }

    /** A demand load/RFO was looked up in the attached cache. */
    virtual void onAccess(const DemandAccess &access) = 0;

    /** A block was filled into the attached cache. */
    virtual void onFill(const FillEvent &fill) { (void)fill; }

    /**
     * A valid block was evicted from the attached cache. Spatial
     * prefetchers use this to end a region's accumulation generation.
     */
    virtual void onEvict(Addr paddr, Addr vaddr)
    {
        (void)paddr;
        (void)vaddr;
    }

    /**
     * Advance one cycle (prefetch buffers drain here).
     *
     * Contract with the attached cache: once the cache's full
     * prefetch queue has refused an issuePrefetch() of a tick(), each
     * later tick() called while that queue is unchanged may do nothing
     * but make the same refused calls, retrying the same target. The
     * cache counts the pfDroppedFull a tick adds and, while its queue
     * head is blocked too, sleeps and replays that count for each
     * cycle it skips. PrefetchBuffer::drain, the only tick that
     * issues, returns at its first refused target and retries it
     * first.
     */
    virtual void tick() {}

    /**
     * True while tick() has pending work (a prefetch buffer still
     * draining). The attached cache keeps its wake gate open every
     * cycle this returns true, unless the drain was refused by its
     * full, blocked prefetch queue (see tick()); schemes whose tick()
     * is a no-op keep the default and never force a wake-up.
     */
    virtual bool busy() const { return false; }

    /** Metadata storage in bits, for the Table I / Table IV benches. */
    virtual uint64_t storageBits() const { return 0; }

    /**
     * Obs attribution id, assigned deterministically by System when
     * the scheme is attached (keyed by (name, attach level), so every
     * core's copy of one scheme shares an id). 0 = unassigned
     * (standalone prefetchers in unit tests).
     */
    uint16_t schemeId() const { return obsSchemeId; }
    void setSchemeId(uint16_t id) { obsSchemeId = id; }

  protected:
    /**
     * Issue a prefetch for the block containing @p addr.
     *
     * Virtual so tests can intercept the issue stream without a full
     * cache hierarchy behind the prefetcher.
     *
     * @param addr      target address (virtual if @p virt, else physical)
     * @param fill_level innermost level allowed to keep the block
     * @param virt      interpret @p addr as a virtual address and
     *                  translate (only valid at an L1D attach point)
     * @return true when the request was accepted into the prefetch queue
     */
    virtual bool issuePrefetch(Addr addr, uint32_t fill_level, bool virt);

    PrefetcherContext context;

  private:
    uint16_t obsSchemeId = 0;
};

} // namespace gaze
