/**
 * @file
 * Memory request plumbing shared by the core, caches and DRAM model.
 *
 * Requests travel *down* the hierarchy (core -> L1D -> L2C -> LLC ->
 * DRAM); completions travel back *up* via FillReceiver::recvFill. A
 * request carries both its physical and virtual addresses so that
 * L1D-attached prefetchers (which the paper trains on virtual loads)
 * and physical-side structures can both observe it.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"

namespace gaze
{

class FillReceiver;

/**
 * Cache levels, numbered from the core outwards. A prefetch's
 * fillLevel names the innermost level that may allocate the block:
 * every cache with level >= fillLevel on the response path fills.
 */
enum CacheLevel : uint32_t
{
    levelL1 = 1,
    levelL2 = 2,
    levelLLC = 3,
    levelDram = 4
};

/** One block-granularity memory request. */
struct Request
{
    /** Physical address (block aligned by the first cache it enters). */
    Addr paddr = 0;

    /** Virtual address, when the request originated from a core/L1D. */
    Addr vaddr = 0;

    /** PC of the triggering instruction (0 for writebacks). */
    PC pc = 0;

    /** Demand load / RFO / prefetch / writeback. */
    AccessType type = AccessType::Load;

    /** Originating core, for multi-core stats and page mapping. */
    uint32_t cpu = 0;

    /** Innermost cache level allowed to allocate the block. */
    uint32_t fillLevel = levelL1;

    /**
     * Obs attribution: System-assigned id of the scheme that issued
     * this prefetch (0 = demand / no scheme). Rides the request down
     * the hierarchy and into the filled block, so usefulness,
     * lateness and pollution can be credited to the issuing scheme
     * wherever they are detected.
     */
    uint16_t pfScheme = 0;

    /** Who to notify when this request's data is available. */
    FillReceiver *requester = nullptr;

    /** Opaque completion token for the requester (e.g. ROB index). */
    uint64_t token = 0;

    /** Cycle the request was created, for latency accounting. */
    Cycle issueCycle = 0;

    /** True for demand (non-prefetch, non-writeback) requests. */
    bool
    isDemand() const
    {
        return type == AccessType::Load || type == AccessType::Rfo;
    }
};

// One host cache line: every queue, response FIFO and MSHR entry holds
// a Request, so a new field has to justify the growth.
static_assert(sizeof(Request) <= 64, "Request outgrew a host cache line");

/** Upward-facing interface: anything that can receive completed fills. */
class FillReceiver
{
  public:
    virtual ~FillReceiver() = default;

    /** Called by the lower level when @p req has been satisfied. */
    virtual void recvFill(const Request &req) = 0;
};

/** Downward-facing interface: anything that accepts requests. */
class MemoryDevice
{
  public:
    virtual ~MemoryDevice() = default;

    /**
     * Try to enqueue @p req. Returns false when the target queue is
     * full; the sender must hold the request and retry on a later
     * cycle (this is how back-pressure propagates to the core).
     */
    virtual bool sendRequest(const Request &req) = 0;

    /** Advance one CPU cycle. */
    virtual void tick() = 0;
};

} // namespace gaze
