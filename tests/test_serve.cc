/**
 * @file
 * gaze_serve service tests, all in-process against the transport-
 * independent Service object (the Unix-socket server drives the same
 * code): the determinism contract (a daemon report is byte-identical
 * to the offline gaze_campaign pipeline), concurrent-client dedup
 * (overlapping submissions simulate each shared cell exactly once),
 * the repeat-submission pure-cache-hit fast path, admission control
 * (queue cap all-or-nothing, per-client in-flight cap, drain
 * rejections), deterministic priority scheduling for a fixed arrival
 * sequence, the shared status-JSON shape, and failure propagation
 * (a throwing cell becomes an error event, never a dead daemon).
 * Labeled "concurrency": the TSan gate re-runs all of this with the
 * race detector watching the scheduler and session paths.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/cell_key.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"

namespace gaze
{
namespace
{

using serve::Service;
using serve::ServiceConfig;

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

JsonValue
parseSpecText(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    return doc;
}

/** Spec over one prefetcher and a workload list, tiny phases. */
std::string
specText(const std::string &name, const std::string &pf,
         const std::string &workloads)
{
    return "{\"name\":\"" + name + "\",\"prefetchers\":[\"" + pf
           + "\"],\"workloads\":[" + workloads
           + "],\"warmup\":500,\"sim\":2000}";
}

/** The offline pipeline the daemon must be byte-identical to. */
CampaignReport
offlineReport(const std::string &spec, const std::string &dirName)
{
    Campaign campaign =
        expandCampaign(parseCampaignSpec(parseSpecText(spec)));
    ResultCache cache(freshDir(dirName));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    runCampaign(campaign, &cache, opt);
    return buildReport(campaign, cache, nullptr);
}

/** One in-process session collecting its event lines. */
class TestClient
{
  public:
    explicit TestClient(Service &service) : svc(service)
    {
        id = svc.openSession([this](const std::string &line) {
            // Runs with the service lock held (possibly on a worker
            // thread); only this client's own state is touched.
            std::lock_guard<std::mutex> lock(mtx);
            lines.push_back(line);
        });
    }

    ~TestClient() { svc.closeSession(id); }

    TestClient(const TestClient &) = delete;
    TestClient &operator=(const TestClient &) = delete;

    void send(const std::string &line) { svc.handleLine(id, line); }

    void
    submit(const std::string &spec, int64_t priority = 0)
    {
        send(serve::encodeSubmit(parseSpecText(spec), priority));
    }

    /** All received events with the given "event" name, parsed. */
    std::vector<JsonValue>
    events(const std::string &name) const
    {
        std::vector<std::string> snapshot;
        {
            std::lock_guard<std::mutex> lock(mtx);
            snapshot = lines;
        }
        std::vector<JsonValue> out;
        for (const auto &line : snapshot) {
            JsonValue doc;
            std::string error;
            EXPECT_TRUE(parseJson(line, &doc, &error))
                << error << " in " << line;
            const JsonValue *e = doc.find("event");
            if (e && e->isString() && e->asString() == name)
                out.push_back(doc);
        }
        return out;
    }

    std::string
    field(const JsonValue &doc, const char *key) const
    {
        const JsonValue *v = doc.find(key);
        return v && v->isString() ? v->asString() : "";
    }

    double
    number(const JsonValue &doc, const char *key) const
    {
        const JsonValue *v = doc.find(key);
        return v && v->isNumber() ? v->asNumber() : -1.0;
    }

  private:
    Service &svc;
    uint64_t id = 0;
    mutable std::mutex mtx;
    std::vector<std::string> lines;
};

/** Blocks executor calls until release(); reports when calls start. */
struct Gate
{
    std::mutex mtx;
    std::condition_variable cv;
    bool open = false;
    int started = 0;

    void
    waitOpen()
    {
        std::unique_lock<std::mutex> lock(mtx);
        ++started;
        cv.notify_all();
        cv.wait(lock, [this] { return open; });
    }

    void
    release()
    {
        std::unique_lock<std::mutex> lock(mtx);
        open = true;
        cv.notify_all();
    }

    void
    waitStarted(int n)
    {
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait(lock, [this, n] { return started >= n; });
    }
};

TEST(ServeService, SingleClientReportMatchesOfflineByteForByte)
{
    const std::string spec =
        specText("serve_one", "ip_stride", "\"mcf\",\"leslie3d\"");
    CampaignReport expected = offlineReport(spec, "serve_one_offline");

    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_one_daemon");
    cfg.threads = 2;
    Service service(cfg);
    TestClient client(service);
    client.submit(spec);
    service.drain();

    auto accepted = client.events("accepted");
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_EQ(client.number(accepted[0], "cells"), 4.0);
    EXPECT_EQ(client.number(accepted[0], "cached"), 0.0);

    auto reports = client.events("report");
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(client.field(reports[0], "name"), "serve_one");
    EXPECT_EQ(client.field(reports[0], "report"), expected.json);
    EXPECT_EQ(client.field(reports[0], "csv"), expected.csv);
    EXPECT_EQ(client.events("error").size(), 0u);
    EXPECT_EQ(service.schedulerStats().executed, 4u);
}

TEST(ServeService, ConcurrentClientsShareCellsAndAllReportsComplete)
{
    // Four overlapping specs over three workloads: the union is 3
    // baselines + 3 cells = 6 distinct jobs, but 18 are requested.
    // Whatever the interleaving, each shared cell simulates exactly
    // once and every client's report equals its offline twin.
    const std::string specs[4] = {
        specText("serve_a", "ip_stride", "\"mcf\",\"leslie3d\""),
        specText("serve_b", "ip_stride", "\"leslie3d\",\"canneal\""),
        specText("serve_c", "ip_stride", "\"mcf\",\"canneal\""),
        specText("serve_d", "ip_stride",
                 "\"mcf\",\"leslie3d\",\"canneal\""),
    };
    CampaignReport expected[4] = {
        offlineReport(specs[0], "serve_multi_a"),
        offlineReport(specs[1], "serve_multi_b"),
        offlineReport(specs[2], "serve_multi_c"),
        offlineReport(specs[3], "serve_multi_d"),
    };

    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_multi_daemon");
    cfg.threads = 2;
    Gate gate;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        gate.waitOpen();
        return executeCampaignJob(run, job);
    };
    Service service(cfg);

    std::vector<std::unique_ptr<TestClient>> clients;
    for (int i = 0; i < 4; ++i)
        clients.push_back(std::make_unique<TestClient>(service));
    // All four land while the first cells are still in flight, so the
    // overlap resolves through in-flight attaches, not the cache.
    for (int i = 0; i < 4; ++i)
        clients[size_t(i)]->submit(specs[size_t(i)]);
    gate.release();
    service.drain();

    for (int i = 0; i < 4; ++i) {
        auto reports = clients[size_t(i)]->events("report");
        ASSERT_EQ(reports.size(), 1u) << "client " << i;
        EXPECT_EQ(clients[size_t(i)]->field(reports[0], "report"),
                  expected[size_t(i)].json)
            << "client " << i;
        EXPECT_EQ(clients[size_t(i)]->field(reports[0], "csv"),
                  expected[size_t(i)].csv)
            << "client " << i;
        EXPECT_EQ(clients[size_t(i)]->events("error").size(), 0u);
    }

    serve::SchedulerStats stats = service.schedulerStats();
    EXPECT_EQ(stats.executed, 6u); // the union, exactly once each
    EXPECT_EQ(stats.executed + stats.cacheHits + stats.dedupHits, 18u);
    EXPECT_GT(stats.dedupHits, 0u);
    EXPECT_EQ(service.counters().completed, 4u);
}

TEST(ServeService, RepeatSubmissionIsAnsweredWithZeroSimulations)
{
    const std::string spec =
        specText("serve_repeat", "ip_stride", "\"mcf\"");

    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_repeat_daemon");
    cfg.threads = 2;
    Service service(cfg);
    TestClient client(service);
    client.submit(spec);
    service.drain();
    ASSERT_EQ(client.events("report").size(), 1u);
    uint64_t executed = service.schedulerStats().executed;
    EXPECT_EQ(executed, 2u); // 1 baseline + 1 cell

    client.submit(spec);
    service.drain();

    auto accepted = client.events("accepted");
    ASSERT_EQ(accepted.size(), 2u);
    EXPECT_EQ(client.number(accepted[1], "cached"), 2.0);
    EXPECT_EQ(client.number(accepted[1], "enqueued"), 0.0);
    EXPECT_EQ(client.number(accepted[1], "shared"), 0.0);
    EXPECT_EQ(service.schedulerStats().executed, executed);

    auto reports = client.events("report");
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(client.field(reports[0], "report"),
              client.field(reports[1], "report"));
}

TEST(ServeService, QueueFullRejectionIsAllOrNothing)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_admission_daemon");
    cfg.threads = 1;
    cfg.maxQueuedCells = 2;
    Service service(cfg);
    TestClient client(service);

    // 2 workloads -> 4 jobs > the 2-cell cap: rejected outright, and
    // nothing may have been enqueued from the batch.
    client.submit(
        specText("serve_big", "ip_stride", "\"mcf\",\"leslie3d\""));
    auto rejected = client.events("rejected");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_NE(client.field(rejected[0], "reason").find("queue full"),
              std::string::npos);
    EXPECT_EQ(service.schedulerStats().executed, 0u);
    EXPECT_EQ(service.counters().rejected, 1u);
    EXPECT_EQ(service.counters().submits, 0u);

    // A batch that fits goes through on the same connection.
    client.submit(specText("serve_fit", "ip_stride", "\"mcf\""));
    service.drain();
    EXPECT_EQ(client.events("report").size(), 1u);
    EXPECT_EQ(service.schedulerStats().executed, 2u);
}

TEST(ServeService, PerClientInFlightCapRejectsUntilReportDelivered)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_inflight_daemon");
    cfg.threads = 1;
    cfg.maxClientInFlight = 1;
    Gate gate;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        gate.waitOpen();
        return executeCampaignJob(run, job);
    };
    Service service(cfg);
    TestClient client(service);

    client.submit(specText("serve_first", "ip_stride", "\"mcf\""));
    EXPECT_EQ(client.events("accepted").size(), 1u);
    gate.waitStarted(1);

    client.submit(
        specText("serve_second", "ip_stride", "\"leslie3d\""));
    auto rejected = client.events("rejected");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_NE(client.field(rejected[0], "reason").find("in flight"),
              std::string::npos);

    gate.release();
    service.drain();
    ASSERT_EQ(client.events("report").size(), 1u);

    // The cap frees up once the report is out.
    client.submit(
        specText("serve_second", "ip_stride", "\"leslie3d\""));
    service.drain();
    EXPECT_EQ(client.events("report").size(), 2u);
}

TEST(ServeService, PriorityOrdersReadyCellsDeterministically)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_priority_daemon");
    cfg.threads = 1; // serialized starts make the order observable
    Gate gate;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        gate.waitOpen();
        return executeCampaignJob(run, job);
    };
    Service service(cfg);
    TestClient client(service);

    // The mcf baseline starts (and blocks); everything else queues.
    client.submit(specText("serve_p0", "ip_stride", "\"mcf\""), 0);
    gate.waitStarted(1);
    client.submit(specText("serve_p1", "ip_stride", "\"leslie3d\""), 1);
    client.submit(specText("serve_p9", "ip_stride", "\"canneal\""), 9);
    gate.release();
    service.drain();

    std::vector<std::string> log = service.executionLog();
    ASSERT_EQ(log.size(), 6u);
    // Start order: the blocked mcf baseline, then priority 9's two
    // cells (baseline first: arrival order breaks priority ties),
    // then priority 1's, then the mcf cell left at priority 0.
    EXPECT_NE(log[0].find("mcf"), std::string::npos);
    EXPECT_NE(log[0].find("baseline"), std::string::npos);
    EXPECT_NE(log[1].find("canneal"), std::string::npos);
    EXPECT_NE(log[1].find("baseline"), std::string::npos);
    EXPECT_NE(log[2].find("canneal"), std::string::npos);
    EXPECT_NE(log[3].find("leslie3d"), std::string::npos);
    EXPECT_NE(log[3].find("baseline"), std::string::npos);
    EXPECT_NE(log[4].find("leslie3d"), std::string::npos);
    EXPECT_NE(log[5].find("mcf"), std::string::npos);
    EXPECT_EQ(log[5].find("baseline"), std::string::npos);
}

TEST(ServeService, StatusJsonSharesTheCampaignStatusShape)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_status_daemon");
    cfg.threads = 1;
    Gate gate;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        gate.waitOpen();
        return executeCampaignJob(run, job);
    };
    Service service(cfg);
    TestClient client(service);
    client.submit(specText("serve_status", "ip_stride", "\"mcf\""));
    gate.waitStarted(1);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(service.statusJson(), &doc, &error)) << error;
    const JsonValue *server = doc.find("server");
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->find("threads")->asNumber(), 1.0);
    EXPECT_EQ(server->find("clients")->asNumber(), 1.0);
    EXPECT_EQ(server->find("submits")->asNumber(), 1.0);
    EXPECT_FALSE(server->find("draining")->asBool());

    // One in-flight submission, rendered with the same keys
    // `gaze_campaign status --json` prints.
    const JsonValue *subs = doc.find("submissions");
    ASSERT_NE(subs, nullptr);
    ASSERT_EQ(subs->items().size(), 1u);
    const JsonValue &sub = subs->items()[0];
    EXPECT_EQ(sub.find("campaign")->asString(), "serve_status");
    EXPECT_EQ(sub.find("schema")->asNumber(),
              double(kCellSchemaVersion));
    EXPECT_EQ(sub.find("total")->asNumber(), 2.0);
    EXPECT_EQ(sub.find("cached")->asNumber()
                  + sub.find("missing")->asNumber(),
              2.0);

    gate.release();
    service.drain();

    // The status op answers through the same event channel.
    client.send(serve::encodeStatus());
    auto statuses = client.events("status");
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_EQ(statuses[0]
                  .find("server")
                  ->find("completed")
                  ->asNumber(),
              1.0);
}

TEST(ServeService, InvalidRequestsAreRejectedNeverFatal)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_reject_daemon");
    cfg.threads = 1;
    Service service(cfg);
    TestClient client(service);

    client.send("this is not json");
    client.send(R"({"op":"frobnicate"})");
    client.send(R"({"op":"submit"})"); // no spec
    client.send(R"({"op":"status","spec":{}})");
    client.send(R"({"op":"submit","priority":1.5,"spec":{}})");
    // Spec-level errors come back as rejections with the diagnostic
    // the offline parser would have died with.
    client.submit(specText("bad_pf", "warp_drive", "\"mcf\""));
    client.submit(specText("bad_wl", "ip_stride", "\"nope\""));
    client.submit(
        R"({"name":"bad_key","prefetchers":["gaze"],"typo_key":1})");

    auto rejected = client.events("rejected");
    ASSERT_EQ(rejected.size(), 8u);
    EXPECT_NE(client.field(rejected[5], "reason").find("warp_drive"),
              std::string::npos);
    EXPECT_NE(client.field(rejected[6], "reason").find("workload"),
              std::string::npos);
    EXPECT_NE(client.field(rejected[7], "reason").find("typo_key"),
              std::string::npos);

    // The daemon is unharmed: a good submission still completes.
    client.submit(specText("serve_ok", "ip_stride", "\"mcf\""));
    service.drain();
    EXPECT_EQ(client.events("report").size(), 1u);
}

TEST(ServeService, OversizedCoreCountIsRejectedAndServingContinues)
{
    // A core count above the System's bound must be refused by the
    // preflight: enqueued, its jobs would panic in System and take the
    // daemon down. The rejection names the bound, nothing is enqueued,
    // and the next submission still completes.
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_cores_daemon");
    cfg.threads = 1;
    Service service(cfg);
    TestClient client(service);

    client.submit(R"({"name":"too_many_cores","prefetchers":["gaze"],)"
                  R"("workloads":["mcf"],"cores":[65],)"
                  R"("warmup":500,"sim":2000})");
    auto rejected = client.events("rejected");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_NE(client.field(rejected[0], "reason")
                  .find("core count 65 exceeds the 64-core limit"),
              std::string::npos);
    EXPECT_TRUE(client.events("accepted").empty());
    EXPECT_EQ(service.counters().rejected, 1u);

    client.submit(specText("serve_after_cores", "ip_stride", "\"mcf\""));
    service.drain();
    EXPECT_EQ(client.events("report").size(), 1u);
    EXPECT_TRUE(client.events("error").empty());
}

TEST(ServeService, DrainRejectsNewWorkButFinishesInFlight)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_drain_daemon");
    cfg.threads = 1;
    Gate gate;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        gate.waitOpen();
        return executeCampaignJob(run, job);
    };
    Service service(cfg);
    TestClient client(service);
    client.submit(specText("serve_drainee", "ip_stride", "\"mcf\""));
    gate.waitStarted(1);

    service.beginDrain();
    client.submit(specText("serve_late", "ip_stride", "\"leslie3d\""));
    auto rejected = client.events("rejected");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_NE(client.field(rejected[0], "reason").find("draining"),
              std::string::npos);

    // The in-flight submission still runs to its report.
    gate.release();
    service.drain();
    ASSERT_EQ(client.events("report").size(), 1u);
    EXPECT_EQ(service.schedulerStats().executed, 2u);
}

TEST(ServeService, FailingCellBecomesErrorEventAndIsRetryable)
{
    ServiceConfig cfg;
    cfg.cacheDir = freshDir("serve_fail_daemon");
    cfg.threads = 1;
    bool sabotage = true;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        // The flag is written only while the service is idle.
        if (sabotage && !job.isBaseline)
            throw std::runtime_error("injected cell failure");
        return executeCampaignJob(run, job);
    };
    Service service(cfg);
    TestClient client(service);

    const std::string spec =
        specText("serve_flaky", "ip_stride", "\"mcf\"");
    client.submit(spec);
    service.drain();

    auto errors = client.events("error");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(client.field(errors[0], "message")
                  .find("injected cell failure"),
              std::string::npos);
    EXPECT_EQ(client.events("report").size(), 0u);
    EXPECT_EQ(service.schedulerStats().failed, 1u);

    // The failed cell was never published: the same spec resubmitted
    // with the fault gone simulates the cell and reports normally.
    sabotage = false;
    client.submit(spec);
    service.drain();
    EXPECT_EQ(client.events("report").size(), 1u);
    EXPECT_EQ(service.schedulerStats().failed, 1u);
}

} // namespace
} // namespace gaze
