/**
 * @file
 * The process-wide trace store: each generator workload is generated
 * once per process and its records are shared, read-only, by every
 * job, core and daemon submission that opens it (WorkloadDef::open()).
 * A baseline, its prefetcher cells and every core of an N-core cell
 * read one buffer, and a gaze_serve daemon keeps the buffers across
 * submissions, so a fresh spec on a known workload skips generation.
 *
 * Entries are keyed by workloadIdentity() — the same string that keys
 * the result cache, so one identity always names one trace. The first
 * open generates through a shared future: concurrent opens of that
 * identity wait for the single generation, and a generator that throws
 * reaches every waiter and leaves no entry behind, so the next open
 * generates again.
 *
 * Residency is bounded by bytes. When the resident records exceed the
 * cap, the least recently used entries that no cursor holds are
 * evicted; an entry a live VectorTrace reads is never dropped (dropping
 * it would free nothing). Recorded .gzt replay does not come through
 * here: FileTrace streams it in bounded memory.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>

#include "sim/trace.hh"

namespace gaze
{

/**
 * Byte cap of the process-wide store: it holds the four serve-mixed
 * workloads even at GAZE_SIM_SCALE=1 (4 x 600k records x 24 B). A
 * wider matrix stays inside it because campaign jobs run workload by
 * workload (expandCampaignJobs), so each trace is reused while it is
 * resident and then ages out.
 */
constexpr uint64_t kTraceStoreBytes = uint64_t(64) << 20;

/** What a store holds and has done (the daemon's status "traces"). */
struct TraceStoreStats
{
    uint64_t entries = 0;       ///< traces resident or being generated
    uint64_t residentBytes = 0; ///< record bytes of the resident traces
    uint64_t generated = 0;     ///< generator calls
    uint64_t reused = 0;        ///< opens that found an existing entry
};

class TraceStore
{
  public:
    explicit TraceStore(uint64_t capBytes);

    /**
     * The records of @p identity, generated by @p make on the first
     * open. Waits while another thread generates them; rethrows what
     * that generation threw.
     */
    TraceRecords records(const std::string &identity,
                         const std::function<VectorTrace()> &make);

    TraceStoreStats stats() const;

  private:
    struct Entry
    {
        std::shared_future<TraceRecords> future;
        bool ready = false;   ///< generated (pending entries never evict)
        uint64_t bytes = 0;   ///< record bytes once ready
        uint64_t lastUse = 0; ///< LRU clock of the last open
    };

    /** Evict LRU unheld ready entries until resident <= cap. */
    void evictLocked();

    const uint64_t capBytes;
    mutable std::mutex mtx;
    std::map<std::string, Entry> entries;
    uint64_t resident = 0;
    uint64_t clock = 0;
    uint64_t generated = 0;
    uint64_t reused = 0;
};

/** The store every WorkloadDef::open() reads through (kTraceStoreBytes). */
TraceStore &traceStore();

} // namespace gaze
