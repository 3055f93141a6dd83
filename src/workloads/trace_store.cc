#include "workloads/trace_store.hh"

#include <exception>

namespace gaze
{

TraceStore::TraceStore(uint64_t capBytes_) : capBytes(capBytes_) {}

TraceRecords
TraceStore::records(const std::string &identity,
                    const std::function<VectorTrace()> &make)
{
    std::unique_lock<std::mutex> lock(mtx);
    auto it = entries.find(identity);
    if (it != entries.end()) {
        ++reused;
        it->second.lastUse = ++clock;
        if (it->second.ready) {
            // Copied under the lock, so this open holds the entry
            // before eviction looks at it.
            TraceRecords recs = it->second.future.get();
            evictLocked();
            return recs;
        }
        std::shared_future<TraceRecords> pending = it->second.future;
        lock.unlock();
        return pending.get();
    }

    std::promise<TraceRecords> promise;
    Entry &fresh = entries[identity];
    fresh.future = promise.get_future().share();
    fresh.lastUse = ++clock;
    ++generated;
    lock.unlock();

    TraceRecords recs;
    try {
        recs = make().shared();
    } catch (...) {
        lock.lock();
        entries.erase(identity);
        lock.unlock();
        promise.set_exception(std::current_exception());
        throw;
    }

    lock.lock();
    promise.set_value(recs);
    Entry &done = entries.at(identity);
    done.ready = true;
    done.bytes = recs->capacity() * sizeof(TraceRecord);
    resident += done.bytes;
    evictLocked();
    return recs;
}

void
TraceStore::evictLocked()
{
    while (resident > capBytes) {
        auto victim = entries.end();
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            const Entry &e = it->second;
            // The store's own reference is the only one of an unheld
            // entry; a held one would stay in memory after eviction.
            if (!e.ready || e.future.get().use_count() > 1)
                continue;
            if (victim == entries.end()
                || e.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries.end())
            return;
        resident -= victim->second.bytes;
        entries.erase(victim);
    }
}

TraceStoreStats
TraceStore::stats() const
{
    std::unique_lock<std::mutex> lock(mtx);
    TraceStoreStats s;
    s.entries = entries.size();
    s.residentBytes = resident;
    s.generated = generated;
    s.reused = reused;
    return s;
}

TraceStore &
traceStore()
{
    // Never destroyed: worker threads may still open traces while the
    // process exits.
    static TraceStore *store = new TraceStore(kTraceStoreBytes);
    return *store;
}

} // namespace gaze
