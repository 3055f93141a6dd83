#include "serve/service.hh"

#include <cstdio>

#include "campaign/report.hh"
#include "common/log.hh"
#include "harness/export.hh"
#include "obs/trace.hh"
#include "workloads/trace_store.hh"

namespace gaze
{
namespace serve
{

Service::Service(const ServiceConfig &cfg_)
    : cfg(cfg_), cache(cfg_.cacheDir)
{
    SchedulerConfig scfg;
    scfg.threads = cfg.threads;
    scfg.maxQueuedCells = cfg.maxQueuedCells;
    sched = std::make_unique<CellScheduler>(cache, scfg, cfg.executor);
}

Service::~Service()
{
    // The scheduler member is destroyed first (declared last); its
    // destructor drains and joins, so no completion callback can
    // observe a half-destroyed Service.
}

void
Service::setWakeup(std::function<void()> fn)
{
    std::unique_lock<std::mutex> lock(mtx);
    wakeup = std::move(fn);
}

uint64_t
Service::openSession(EventFn deliver)
{
    std::unique_lock<std::mutex> lock(mtx);
    uint64_t id = nextClient++;
    sessions[id] = Session{std::move(deliver), 0};
    ++ctr.clientsTotal;
    ++ctr.clientsOpen;
    emitObsCountersLocked();
    return id;
}

void
Service::closeSession(uint64_t client)
{
    std::unique_lock<std::mutex> lock(mtx);
    auto it = sessions.find(client);
    if (it == sessions.end())
        return;
    // In-flight submissions of this client keep running: their cells
    // may be shared with other clients, and publishing them warms the
    // cache either way. Their events just have nowhere to go.
    sessions.erase(it);
    --ctr.clientsOpen;
    emitObsCountersLocked();
}

void
Service::deliverLocked(uint64_t client, const std::string &line)
{
    auto it = sessions.find(client);
    if (it != sessions.end() && it->second.deliver)
        it->second.deliver(line);
}

void
Service::rejectLocked(uint64_t client, const std::string &reason)
{
    ++ctr.rejected;
    if (cfg.verbose)
        std::fprintf(stderr, "gaze_serve: rejected client %llu: %s\n",
                     static_cast<unsigned long long>(client),
                     reason.c_str());
    deliverLocked(client, eventRejected(reason));
}

void
Service::reject(uint64_t client, const std::string &reason)
{
    std::unique_lock<std::mutex> lock(mtx);
    rejectLocked(client, reason);
}

void
Service::handleLine(uint64_t client, const std::string &line)
{
    std::unique_lock<std::mutex> lock(mtx);
    auto sit = sessions.find(client);
    if (sit == sessions.end())
        return;

    Request req;
    std::string why;
    if (!parseRequest(line, &req, &why)) {
        rejectLocked(client, why);
        return;
    }

    switch (req.op) {
      case Request::Op::Status: {
        deliverLocked(client, statusJsonLocked());
        break;
      }
      case Request::Op::Shutdown: {
        shutdownFlag = true;
        draining = true;
        deliverLocked(client, eventBye());
        if (wakeup)
            wakeup();
        break;
      }
      case Request::Op::Submit: {
        handleSubmitLocked(client, sit->second, req);
        break;
      }
    }
}

void
Service::handleSubmitLocked(uint64_t client, Session &session,
                            const Request &req)
{
    if (draining) {
        rejectLocked(client, "daemon is draining (shutdown requested); "
                             "no new submissions");
        return;
    }
    if (session.active >= cfg.maxClientInFlight) {
        rejectLocked(client,
                     "client already has "
                         + std::to_string(session.active)
                         + " submission(s) in flight (limit "
                         + std::to_string(cfg.maxClientInFlight)
                         + "); wait for a report");
        return;
    }
    CampaignSpec spec;
    std::string specErr;
    if (!parseCampaignSpec(req.spec, &spec, &specErr)) {
        rejectLocked(client, specErr);
        return;
    }

    auto sub = std::make_shared<Submission>();
    sub->id = nextSubmission++;
    sub->client = client;
    sub->campaign = expandCampaign(spec);

    std::vector<CampaignJob> jobs = expandCampaignJobs(sub->campaign);
    sub->total = jobs.size();

    // Register before submitBatch: completion callbacks can fire on
    // worker threads the moment the lock is released, and they look
    // the submission up by id.
    submissions[sub->id] = sub;
    uint64_t id = sub->id;
    auto outcome = sched->submitBatch(
        sub->campaign.spec.run, jobs, req.priority,
        [this, id](const CampaignJob &job, const CellRecord &rec,
                   bool ok, const std::string &error) {
            onCellDone(id, job, rec, ok, error);
        });
    if (!outcome.accepted) {
        submissions.erase(id);
        rejectLocked(client, outcome.reason);
        return;
    }

    ++ctr.submits;
    ++session.active;
    ctr.cacheHits += outcome.cacheHits;
    ctr.dedupHits += outcome.shared;
    sub->done = outcome.cacheHits;
    for (auto &[index, rec] : outcome.cachedNow)
        sub->records.emplace(jobs[index].hash, std::move(rec));
    deliverLocked(client,
                  eventAccepted(sub->id, sub->total, outcome.cacheHits,
                                outcome.shared, outcome.enqueued));
    if (cfg.verbose)
        std::fprintf(stderr,
                     "gaze_serve: submission %llu from client %llu: "
                     "%llu cell(s), %llu cached, %llu shared, %llu "
                     "enqueued\n",
                     static_cast<unsigned long long>(sub->id),
                     static_cast<unsigned long long>(client),
                     static_cast<unsigned long long>(sub->total),
                     static_cast<unsigned long long>(outcome.cacheHits),
                     static_cast<unsigned long long>(outcome.shared),
                     static_cast<unsigned long long>(outcome.enqueued));
    emitObsCountersLocked();

    if (sub->done == sub->total) {
        // Fully answered from the cache: the repeated-question case
        // the daemon exists for. Report immediately, zero simulations.
        finishSubmissionLocked(sub);
    }
}

void
Service::onCellDone(uint64_t submissionId, const CampaignJob &job,
                    const CellRecord &rec, bool ok,
                    const std::string &error)
{
    std::unique_lock<std::mutex> lock(mtx);
    auto it = submissions.find(submissionId);
    if (it == submissions.end())
        return;
    std::shared_ptr<Submission> sub = it->second;
    ++sub->done;
    ++ctr.cellsExecuted;
    if (ok) {
        sub->records.emplace(job.hash, rec);
    } else if (!sub->failed) {
        sub->failed = true;
        sub->error = "cell '" + job.label + "' failed: " + error;
    }
    deliverLocked(sub->client,
                  eventProgress(sub->id, sub->done, sub->total,
                                job.label, rec.seconds));
    if (sub->done == sub->total)
        finishSubmissionLocked(sub);
    if (wakeup)
        wakeup();
}

void
Service::finishSubmissionLocked(const std::shared_ptr<Submission> &sub)
{
    if (sub->failed) {
        deliverLocked(sub->client, eventError(sub->id, sub->error));
    } else {
        // Every job of this submission has its record by now, the
        // same record the cache holds, so the report is complete and
        // byte-identical to the offline gaze_campaign pipeline.
        CampaignReport report =
            buildReport(sub->campaign, sub->records, nullptr);
        deliverLocked(sub->client,
                      eventReport(sub->id, sub->campaign.spec.name,
                                  report.json, report.csv));
    }
    ++ctr.completed;
    auto sit = sessions.find(sub->client);
    if (sit != sessions.end() && sit->second.active > 0)
        --sit->second.active;
    submissions.erase(sub->id);
    if (cfg.verbose)
        std::fprintf(stderr,
                     "gaze_serve: submission %llu %s (%llu cell(s))\n",
                     static_cast<unsigned long long>(sub->id),
                     sub->failed ? "failed" : "completed",
                     static_cast<unsigned long long>(sub->total));
    emitObsCountersLocked();
    if (submissions.empty())
        idleCv.notify_all();
}

void
Service::beginDrain()
{
    std::unique_lock<std::mutex> lock(mtx);
    draining = true;
}

bool
Service::shutdownRequested() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return shutdownFlag;
}

bool
Service::idle() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return submissions.empty();
}

void
Service::drain()
{
    std::unique_lock<std::mutex> lock(mtx);
    idleCv.wait(lock, [this] { return submissions.empty(); });
}

ServiceCounters
Service::counters() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return ctr;
}

std::string
Service::statusJson()
{
    std::unique_lock<std::mutex> lock(mtx);
    return statusJsonLocked();
}

std::string
Service::statusJsonLocked()
{
    JsonWriter j;
    j.beginObject();
    j.field("event", "status");
    j.key("server").beginObject();
    j.field("cache_dir", cache.directory());
    j.field("threads", static_cast<uint64_t>(sched->threads()));
    j.field("clients", ctr.clientsOpen);
    j.field("clients_total", ctr.clientsTotal);
    j.field("submits", ctr.submits);
    j.field("rejected", ctr.rejected);
    j.field("completed", ctr.completed);
    j.field("executed", ctr.cellsExecuted);
    j.field("cache_hits", ctr.cacheHits);
    j.field("dedup_hits", ctr.dedupHits);
    j.field("queued", sched->inFlight());
    j.field("draining", draining);
    writeBuildProvenance(j);
    // The process-wide trace store: a fresh spec on a workload the
    // daemon has already generated reuses the resident records.
    TraceStoreStats traces = traceStore().stats();
    j.key("traces").beginObject();
    j.field("entries", traces.entries);
    j.field("resident_bytes", traces.residentBytes);
    j.field("generated", traces.generated);
    j.field("reused", traces.reused);
    j.endObject();
    j.endObject();
    j.key("submissions").beginArray();
    for (const auto &kv : submissions) {
        const Submission &s = *kv.second;
        j.beginObject();
        j.field("id", s.id);
        j.field("client", s.client);
        // The shared status shape — same keys gaze_campaign status
        // --json prints, so scripts parse either producer.
        CampaignCacheStatus st;
        st.cached = s.done;
        st.missing = s.total - s.done;
        writeCampaignStatusFields(j, s.campaign.spec.name, st);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    return j.str();
}

void
Service::emitObsCountersLocked()
{
    obs::TraceSink *sink = obs::globalTrace();
    if (!sink)
        return;
    if (!obsTrack)
        obsTrack = sink->allocTrack(obs::kPidHost, "gaze_serve service");
    uint64_t ts = sink->hostNowUs();
    sink->counter(obs::kPidHost, obsTrack, "serve clients", ts,
                  double(ctr.clientsOpen));
    sink->counter(obs::kPidHost, obsTrack, "serve submits", ts,
                  double(ctr.submits));
    sink->counter(obs::kPidHost, obsTrack, "serve dedup hits", ts,
                  double(ctr.dedupHits));
    sink->counter(obs::kPidHost, obsTrack, "serve cache hits", ts,
                  double(ctr.cacheHits));
}

} // namespace serve
} // namespace gaze
