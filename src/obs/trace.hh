/**
 * @file
 * Chrome-trace / Perfetto JSON exporter (--obs-trace). A TraceSink
 * collects complete-event spans on two process tracks:
 *
 *  - pid 1, "simulated time": ts/dur are *cycles* (read them as "1 us
 *    = 1 cycle" in the viewer). Each run's warmup ("run") and
 *    measured ("simulate") phases, per-core measured activity, DRAM
 *    utilization counter samples.
 *  - pid 2, "host time": ts/dur are real microseconds since the sink
 *    was created (via harness/wallclock, the sanctioned host-clock
 *    shim). Campaign cells, shard workers, daemon queue waits.
 *
 * The sink is thread-safe: host spans are recorded from thread-pool
 *workers, each on its own lazily allocated per-thread track, so the
 * spans of any one (pid, tid) always nest properly (RAII scopes on
 * one thread) — scripts/validate_obs.py asserts exactly that.
 *
 * Tracing is pure observation: sinks only record; they never
 * influence scheduling. Trace *content* on the host track reflects
 * real wall time and is not expected to be reproducible — simulated
 * metrics still are (test_engine_diff runs with a sink attached).
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/wallclock.hh"

namespace gaze
{
namespace obs
{

/** Trace-process ids: simulated vs host time domains. */
constexpr uint32_t kPidSim = 1;
constexpr uint32_t kPidHost = 2;

class TraceSink
{
  public:
    TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /**
     * Allocate a named track (a tid) under @p pid; emits the
     * thread_name metadata record. Thread-safe.
     */
    uint32_t allocTrack(uint32_t pid, const std::string &label);

    /** The calling thread's host-time track (allocated on first use). */
    uint32_t hostThreadTrack();

    /** Record a complete ("ph":"X") span. Thread-safe. */
    void span(uint32_t pid, uint32_t tid, const std::string &name,
              uint64_t ts, uint64_t dur);

    /** Record a counter ("ph":"C") sample. Thread-safe. */
    void counter(uint32_t pid, uint32_t tid, const std::string &name,
                 uint64_t ts, double value);

    /** Microseconds of host time since the sink was created. */
    uint64_t hostNowUs() const;

    /** The whole document: {"traceEvents":[...]}. */
    std::string toJson() const;

    /** Write toJson() to @p path; fatal if not writable. */
    void writeTo(const std::string &path) const;

    size_t eventCount() const;

  private:
    struct Event
    {
        char phase;  ///< 'X' span, 'C' counter, 'M' metadata
        uint32_t pid = 0;
        uint32_t tid = 0;
        uint64_t ts = 0;
        uint64_t dur = 0;
        double value = 0.0; ///< counter value ('C' only)
        std::string name;
    };

    mutable std::mutex mtx;
    WallTime start;
    uint32_t nextTid = 1;
    std::vector<Event> events;
};

/**
 * Process-global host-span hook: installed by a CLI when --obs-trace
 * is given, null otherwise. Subsystems that want to report host-time
 * spans (campaign engine, serve scheduler) check this instead of
 * threading a sink through every signature.
 */
TraceSink *globalTrace();
void setGlobalTrace(TraceSink *sink);

/** RAII host-time span on the calling thread's track; null-sink safe. */
class HostSpan
{
  public:
    HostSpan(TraceSink *sink_, std::string name_)
        : sink(sink_), name(std::move(name_)),
          begin(sink_ ? sink_->hostNowUs() : 0)
    {
    }

    ~HostSpan()
    {
        if (!sink)
            return;
        uint64_t end = sink->hostNowUs();
        sink->span(kPidHost, sink->hostThreadTrack(), name, begin,
                   end >= begin ? end - begin : 0);
    }

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    TraceSink *sink;
    std::string name;
    uint64_t begin;
};

} // namespace obs
} // namespace gaze
