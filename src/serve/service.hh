/**
 * @file
 * Transport-independent core of the gaze_serve daemon: sessions hand
 * in request lines, events come back through a per-session callback.
 * The Unix-socket server and the in-process tests both drive this
 * same object, so everything the daemon promises (admission control,
 * dedup, the determinism contract) is provable without a socket.
 *
 * Determinism contract: a report produced here is byte-identical to
 * offline `gaze_campaign run` + `report` for the same spec, whatever
 * the client count, arrival order, or priorities. That is not a
 * property of the scheduler but of the report itself — it is a pure
 * function of the result cache content, and cells are content-
 * addressed — so the service only reorders *execution*, never
 * *results*.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "campaign/cache.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"

namespace gaze
{
namespace serve
{

struct ServiceConfig
{
    std::string cacheDir = "campaign_cache";

    /** Simulation workers (0 = hardware concurrency). */
    uint32_t threads = 0;

    /** Scheduler admission cap: queued + running cells. */
    uint64_t maxQueuedCells = 4096;

    /** Per-client cap on submissions awaiting their report. */
    uint64_t maxClientInFlight = 8;

    /** Per-submission lifecycle lines on stderr. */
    bool verbose = false;

    /** Test seam forwarded to the scheduler (empty = simulate). */
    CellScheduler::Executor executor;
};

/** Monotonic service counters (also exported as obs counter tracks). */
struct ServiceCounters
{
    uint64_t clientsTotal = 0; ///< sessions ever opened
    uint64_t clientsOpen = 0;
    uint64_t submits = 0;  ///< accepted submissions
    uint64_t rejected = 0; ///< refused requests (admission/validation)
    uint64_t completed = 0;
    uint64_t cellsExecuted = 0;
    uint64_t cacheHits = 0;
    uint64_t dedupHits = 0;
};

class Service
{
  public:
    /**
     * Event delivery for one session: called with one encoded event
     * line (no newline), possibly from a worker thread, with the
     * service lock held — implementations must be quick and must not
     * call back into the Service.
     */
    using EventFn = std::function<void(const std::string &line)>;

    explicit Service(const ServiceConfig &cfg);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Poked after asynchronous event deliveries so a poll loop can
        flush; set once before the first session opens. */
    void setWakeup(std::function<void()> fn);

    uint64_t openSession(EventFn deliver);
    void closeSession(uint64_t client);

    /** Handle one request line from @p client; every outcome —
        including malformed input — is an event, never an exit. */
    void handleLine(uint64_t client, const std::string &line);

    /** Refuse @p client with a rejected event for a transport-level
        reason (an over-long request line); counted like any other
        rejection. */
    void reject(uint64_t client, const std::string &reason);

    /** Stop admitting submissions; rejections say the daemon drains. */
    void beginDrain();

    /** True once a client asked for shutdown. */
    bool shutdownRequested() const;

    /** No submission is awaiting cells or report delivery. */
    bool idle() const;

    /** Block until idle() (in-process tests). */
    void drain();

    ServiceCounters counters() const;
    SchedulerStats schedulerStats() const { return sched->stats(); }
    std::vector<std::string> executionLog() const
    {
        return sched->executionLog();
    }
    uint32_t threads() const { return sched->threads(); }

    /** The status event body (also sent for op=status). */
    std::string statusJson();

  private:
    struct Session
    {
        EventFn deliver;
        uint64_t active = 0; ///< submissions awaiting their report
    };

    struct Submission
    {
        uint64_t id = 0;
        uint64_t client = 0;
        Campaign campaign;
        uint64_t total = 0; ///< deduplicated jobs in this submission
        uint64_t done = 0;
        bool failed = false;
        std::string error;
        CellRecords records; ///< each finished job's record, by hash
    };

    void handleSubmitLocked(uint64_t client, Session &session,
                            const Request &req);
    void rejectLocked(uint64_t client, const std::string &reason);
    void deliverLocked(uint64_t client, const std::string &line);
    void onCellDone(uint64_t submissionId, const CampaignJob &job,
                    const CellRecord &rec, bool ok,
                    const std::string &error);
    void finishSubmissionLocked(const std::shared_ptr<Submission> &sub);
    std::string statusJsonLocked();
    void emitObsCountersLocked();

    ServiceConfig cfg;
    ResultCache cache;

    mutable std::mutex mtx;
    std::condition_variable idleCv;
    uint64_t nextClient = 1;
    uint64_t nextSubmission = 1;
    std::map<uint64_t, Session> sessions;
    std::map<uint64_t, std::shared_ptr<Submission>> submissions;
    ServiceCounters ctr;
    bool draining = false;
    bool shutdownFlag = false;
    std::function<void()> wakeup;
    uint32_t obsTrack = 0; ///< counter track, allocated on first use

    /** Last member: its workers must stop before the rest is torn
        down (completion callbacks touch everything above). */
    std::unique_ptr<CellScheduler> sched;
};

} // namespace serve
} // namespace gaze
