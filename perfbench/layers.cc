/**
 * @file
 * perf_layers: the traced half of the benchmark. It runs one workload's
 * cells in process, twice: a plain pass, then a traced pass that times
 * every call into a layer from outside the layer:
 *
 *  - workloads  WorkloadDef::make
 *  - tracing    TraceWriter, FileTrace::next (a timing TraceSource)
 *  - sim        System construction, run, simulate
 *  - prefetchers onAccess / onFill + onEvict / tick, through a timing
 *               Prefetcher decorator attached with setL1Prefetcher
 *  - campaign   parseJson, expandCampaign, ResultCache lookup/store,
 *               buildReport (serve mode only)
 *  - serve      serve::Service::handleLine up to the report event
 *               (serve mode only)
 *
 * Coarse calls become spans kept in memory and written out at the end;
 * the per-access hooks run millions of times a cell, so each hook's
 * time is summed into its enclosing run/simulate span instead. The
 * decorators leave simulated results bit-identical: the cache reads
 * the scheme id from the object it holds, and the inner scheme issues
 * through the same context. run.py derives the per-layer metrics from
 * the output document.
 *
 * Usage:
 *   perf_layers matrix --spec=FILE [--spec=FILE...] --work=DIR
 *                      --threads=N --out=FILE
 *   perf_layers serve  --schedule=FILE --work=DIR --clients=N --out=FILE
 */

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "harness/wallclock.hh"
#include "prefetchers/factory.hh"
#include "serve/service.hh"
#include "sim/system.hh"
#include "tracing/trace_io.hh"
#include "workloads/suites.hh"

namespace
{

using namespace gaze;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               wallNow().time_since_epoch())
        .count();
}

/** Summed host time and call count of one timed call site. */
struct Acc
{
    uint64_t ns = 0;
    uint64_t calls = 0;

    void
    add(int64_t t0)
    {
        ns += uint64_t(nowNs() - t0);
        ++calls;
    }
};

/** Forwards every hook to the wrapped scheme, timing each call. */
class TimedPrefetcher final : public Prefetcher
{
  public:
    explicit TimedPrefetcher(std::unique_ptr<Prefetcher> inner_)
        : inner(std::move(inner_))
    {
    }

    std::string name() const override { return inner->name(); }

    void
    attach(const PrefetcherContext &ctx) override
    {
        Prefetcher::attach(ctx);
        inner->attach(ctx);
    }

    void
    onAccess(const DemandAccess &access) override
    {
        int64_t t0 = nowNs();
        inner->onAccess(access);
        train.add(t0);
    }

    void
    onFill(const FillEvent &fill) override
    {
        int64_t t0 = nowNs();
        inner->onFill(fill);
        fills.add(t0);
    }

    void
    onEvict(Addr paddr, Addr vaddr) override
    {
        int64_t t0 = nowNs();
        inner->onEvict(paddr, vaddr);
        fills.add(t0);
    }

    void
    tick() override
    {
        int64_t t0 = nowNs();
        inner->tick();
        ticks.add(t0);
    }

    bool busy() const override { return inner->busy(); }
    uint64_t storageBits() const override { return inner->storageBits(); }

    uint64_t hookNs() const { return train.ns + fills.ns + ticks.ns; }

    Acc train, fills, ticks;

  private:
    std::unique_ptr<Prefetcher> inner;
};

/** A TraceSource that times every fetch of the wrapped source. */
class TimedTrace final : public TraceSource
{
  public:
    explicit TimedTrace(std::unique_ptr<TraceSource> inner_)
        : inner(std::move(inner_))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        int64_t t0 = nowNs();
        bool ok = inner->next(out);
        fetch.add(t0);
        return ok;
    }

    void reset() override { inner->reset(); }

    Acc fetch;

  private:
    std::unique_ptr<TraceSource> inner;
};

/** One closed call: [t0, t1) with its parent span and attributes. */
struct Span
{
    std::string name;
    int64_t t0 = 0;
    int64_t t1 = 0;
    int64_t parent = -1; ///< index into the owning log, -1 = root
    std::string attrs;   ///< extra JSON fields, each ",\"k\":v"
};

/** Spans of one thread, in open order; merged when a pass ends. */
class SpanLog
{
  public:
    size_t
    open(const std::string &name)
    {
        Span s;
        s.name = name;
        s.t0 = nowNs();
        s.parent = stack.empty() ? -1 : int64_t(stack.back());
        spans.push_back(std::move(s));
        stack.push_back(spans.size() - 1);
        return spans.size() - 1;
    }

    void
    close(const std::string &attrs = "")
    {
        Span &s = spans[stack.back()];
        s.t1 = nowNs();
        s.attrs += attrs;
        stack.pop_back();
    }

    std::vector<Span> spans;

  private:
    std::vector<size_t> stack;
};

/** Per-scheme hook totals over a pass. */
struct SchemeTotals
{
    Acc train, fills, ticks;
};

/** Everything one pass measured, merged over its threads. */
struct PassLog
{
    std::mutex mtx;
    std::vector<std::vector<Span>> threads; ///< one span list per thread
    std::map<std::string, SchemeTotals> schemes;

    void
    mergeSpans(SpanLog &log)
    {
        std::lock_guard<std::mutex> lock(mtx);
        threads.push_back(std::move(log.spans));
        log.spans.clear();
    }
};

std::string
u64(uint64_t v)
{
    return std::to_string(v);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The simulated-stat digest fields of one finished run. */
std::string
cellFields(const RunResult &r)
{
    uint64_t measured = 0;
    for (const auto &c : r.cores)
        measured += c.instructions;
    std::ostringstream o;
    o << "\"cycles_total\":" << r.engine.cyclesTotal
      << ",\"instructions\":" << r.instructionsRetired
      << ",\"measured_instructions\":" << measured
      << ",\"events\":" << r.engine.eventsDispatched
      << ",\"cycles_executed\":" << r.engine.cyclesExecuted
      << ",\"cycles_skipped\":" << r.engine.cyclesSkipped
      << ",\"pf_issued\":" << (r.l1d.pfIssued + r.l2.pfIssued)
      << ",\"pf_filled\":" << (r.l1d.pfFilled + r.l2.pfFilled)
      << ",\"pf_useful\":" << (r.l1d.pfUseful + r.l2.pfUseful)
      << ",\"pf_late\":" << (r.l1d.pfLate + r.l2.pfLate)
      << ",\"llc_miss\":" << r.llc.demandMiss()
      << ",\"l1d_accesses\":" << (r.l1d.loadAccess + r.l1d.rfoAccess)
      << ",\"l2_accesses\":" << (r.l2.loadAccess + r.l2.rfoAccess)
      << ",\"mshr_merges\":"
      << (r.l1d.mshrMerge + r.l2.mshrMerge + r.llc.mshrMerge)
      << ",\"dram_requests\":" << (r.dram.reads + r.dram.writes)
      << ",\"schemes\":[";
    for (size_t i = 0; i < r.schemes.size(); ++i) {
        const auto &s = r.schemes[i];
        o << (i ? "," : "") << "{\"name\":" << quoted(s.name)
          << ",\"issued\":" << s.issued << ",\"filled\":" << s.filled
          << ",\"useful\":" << s.useful << ",\"late\":" << s.late
          << ",\"useless\":" << s.useless << "}";
    }
    o << "]";
    return o.str();
}

/**
 * Run one job the way Runner::execute does. With @p traced, every
 * layer call is timed into @p log and the hook totals into @p pass.
 */
RunResult
executeJob(const RunConfig &run, const CampaignJob &job, bool traced,
           SpanLog &log, PassLog &pass)
{
    std::vector<WorkloadDef> mix(job.cores, job.workload);
    log.open("cell");

    SystemConfig sys_cfg = run.system;
    sys_cfg.numCores = job.cores;
    if (traced)
        log.open("construct");
    auto sys = std::make_unique<System>(sys_cfg);

    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<TimedTrace *> timedSources;
    uint64_t genRecords = 0;
    for (const auto &w : mix) {
        std::unique_ptr<TraceSource> src;
        if (!w.traceFile.empty()) {
            src = std::make_unique<FileTrace>(w.traceFile);
        } else {
            if (traced)
                log.open("gen");
            auto vec = std::make_unique<VectorTrace>(w.make());
            genRecords += vec->size();
            if (traced)
                log.close(",\"records\":" + u64(vec->size()));
            src = std::move(vec);
        }
        if (traced) {
            auto timed = std::make_unique<TimedTrace>(std::move(src));
            timedSources.push_back(timed.get());
            src = std::move(timed);
        }
        sources.push_back(std::move(src));
    }
    for (uint32_t c = 0; c < sys->numCores(); ++c)
        sys->setTrace(c, sources[c].get());

    std::vector<TimedPrefetcher *> timedPfs;
    auto wrap = [&](std::unique_ptr<Prefetcher> pf) {
        if (!pf || !traced)
            return pf;
        auto timed = std::make_unique<TimedPrefetcher>(std::move(pf));
        timedPfs.push_back(timed.get());
        return std::unique_ptr<Prefetcher>(std::move(timed));
    };
    for (uint32_t c = 0; c < sys->numCores(); ++c) {
        sys->setL1Prefetcher(c, wrap(makePrefetcher(job.pf.l1)));
        sys->setL2Prefetcher(c, wrap(makePrefetcher(job.pf.l2)));
    }
    if (traced)
        log.close();

    // Hook and fetch time accrued during one call; they are that
    // span's children, summed rather than logged one by one.
    auto hookTotals = [&](uint64_t *hooks, uint64_t *fetch,
                          uint64_t *fetches) {
        *hooks = *fetch = *fetches = 0;
        for (auto *p : timedPfs)
            *hooks += p->hookNs();
        for (auto *t : timedSources) {
            *fetch += t->fetch.ns;
            *fetches += t->fetch.calls;
        }
    };
    const bool fromFile = !job.workload.traceFile.empty();
    auto timedCall = [&](const char *name, auto &&call) {
        uint64_t h0 = 0, f0 = 0, n0 = 0, h1 = 0, f1 = 0, n1 = 0;
        if (traced) {
            hookTotals(&h0, &f0, &n0);
            log.open(name);
        }
        call();
        if (traced) {
            hookTotals(&h1, &f1, &n1);
            log.close(",\"hook_ns\":" + u64(h1 - h0)
                      + ",\"fetch_ns\":" + u64(f1 - f0)
                      + ",\"fetches\":" + u64(n1 - n0)
                      + ",\"from_file\":" + (fromFile ? "1" : "0"));
        }
    };

    std::vector<CoreResult> cores;
    timedCall("run", [&] { sys->run(run.effectiveWarmup()); });
    sys->resetStats();
    timedCall("simulate",
              [&] { cores = sys->simulate(run.effectiveSim()); });
    RunResult result = collectResult(*sys, std::move(cores));

    if (traced) {
        std::lock_guard<std::mutex> lock(pass.mtx);
        for (auto *p : timedPfs) {
            SchemeTotals &t = pass.schemes[p->name()];
            t.train.ns += p->train.ns;
            t.train.calls += p->train.calls;
            t.fills.ns += p->fills.ns;
            t.fills.calls += p->fills.calls;
            t.ticks.ns += p->ticks.ns;
            t.ticks.calls += p->ticks.calls;
        }
    }
    log.close(",\"label\":" + quoted(job.label)
              + ",\"baseline\":" + (job.isBaseline ? "1" : "0")
              + ",\"gen_records\":" + u64(genRecords) + ","
              + cellFields(result));
    return result;
}

/** Run @p fn(i) for i in [0, n) on @p threads workers. */
template <typename Fn>
void
parallelFor(size_t n, uint32_t threads, Fn &&fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            for (size_t i = next++; i < n; i = next++)
                fn(i, t);
        });
    for (auto &w : workers)
        w.join();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "perf_layers: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/** Spans of every pass, tagged by pass name, as one JSON array. */
void
writeSpans(std::ostream &o, const std::string &passName, PassLog &pass,
           bool &first)
{
    for (size_t t = 0; t < pass.threads.size(); ++t) {
        const auto &spans = pass.threads[t];
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            o << (first ? "\n" : ",\n") << "{\"pass\":" << quoted(passName)
              << ",\"log\":" << t << ",\"id\":" << i
              << ",\"parent\":" << s.parent << ",\"name\":"
              << quoted(s.name) << ",\"t0\":" << s.t0
              << ",\"t1\":" << s.t1 << s.attrs << "}";
            first = false;
        }
    }
}

void
writeSchemes(std::ostream &o, const PassLog &pass)
{
    o << "{";
    bool first = true;
    for (const auto &[name, t] : pass.schemes) {
        o << (first ? "" : ",") << quoted(name) << ":{\"train_ns\":"
          << t.train.ns << ",\"train_calls\":" << t.train.calls
          << ",\"fill_ns\":" << t.fills.ns
          << ",\"fill_calls\":" << t.fills.calls
          << ",\"tick_ns\":" << t.ticks.ns
          << ",\"tick_calls\":" << t.ticks.calls << "}";
        first = false;
    }
    o << "}";
}

/**
 * Timed campaign-layer calls on one spec: parse, expand, and a lookup
 * of every job against @p cache. Returns the expanded campaign.
 */
Campaign
timedExpand(const std::string &specText, SpanLog &log)
{
    JsonValue doc;
    std::string err;
    log.open("parse");
    bool ok = parseJson(specText, &doc, &err);
    log.close();
    if (!ok) {
        std::fprintf(stderr, "perf_layers: bad spec: %s\n", err.c_str());
        std::exit(2);
    }
    log.open("expand");
    Campaign c = expandCampaign(parseCampaignSpec(doc));
    log.close();
    return c;
}

void
timedLookups(const std::vector<CampaignJob> &jobs, const ResultCache &cache,
             SpanLog &log)
{
    for (const auto &job : jobs) {
        CellRecord rec;
        log.open("lookup");
        bool hit = cache.lookup(job.hash, job.key, &rec);
        log.close(std::string(",\"hit\":") + (hit ? "1" : "0"));
    }
}

/** Standalone record + decode of every workload a campaign replays or
    generates: the tracing layer's cost per record. */
void
recordAndDecode(const std::vector<CampaignJob> &jobs, const std::string &dir,
                SpanLog &log)
{
    std::filesystem::create_directories(dir);
    std::map<std::string, WorkloadDef> seen;
    for (const auto &job : jobs)
        seen.emplace(job.workload.name, job.workload);
    for (const auto &[name, w] : seen) {
        WorkloadDef gen = findWorkload(name);
        log.open("gen");
        VectorTrace vec = gen.make();
        log.close(",\"records\":" + u64(vec.size()));
        std::string path = dir + "/" + traceFileName(name);
        log.open("record");
        {
            TraceWriter writer(path, "workload=" + name);
            writer.appendAll(vec.data());
            writer.finish();
        }
        log.close(",\"records\":" + u64(vec.size()));
        FileTrace file(path);
        TraceRecord rec;
        uint64_t n = 0;
        log.open("decode");
        while (file.next(rec))
            ++n;
        log.close(",\"records\":" + u64(n));
    }
}

/** A submission's client-side timeline in the in-process service. */
struct Waiter
{
    std::mutex mtx;
    std::condition_variable cv;
    std::vector<std::pair<int64_t, std::string>> events;
    bool done = false;
};

bool
isFinal(const std::string &line)
{
    return line.find("\"event\":\"report\"") != std::string::npos
           || line.find("\"event\":\"error\"") != std::string::npos
           || line.find("\"event\":\"rejected\"") != std::string::npos;
}

/** Submit @p line on @p client and block until its final event. */
std::vector<std::pair<int64_t, std::string>>
submitAndWait(serve::Service &svc, uint64_t client, Waiter &w,
              const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(w.mtx);
        w.events.clear();
        w.done = false;
    }
    svc.handleLine(client, line);
    std::unique_lock<std::mutex> lock(w.mtx);
    w.cv.wait(lock, [&] { return w.done; });
    return w.events;
}

uint64_t
openWaiter(serve::Service &svc, Waiter &w)
{
    return svc.openSession([&w](const std::string &line) {
        std::lock_guard<std::mutex> lock(w.mtx);
        w.events.emplace_back(nowNs(), line);
        if (isFinal(line)) {
            w.done = true;
            w.cv.notify_all();
        }
    });
}

/** The "submit" span attributes: event timestamps and the report. */
std::string
submitAttrs(const std::vector<std::pair<int64_t, std::string>> &events,
            const std::string &tag)
{
    std::string a = ",\"tag\":" + quoted(tag) + ",\"events\":[";
    for (size_t i = 0; i < events.size(); ++i)
        a += (i ? ",[" : "[") + std::to_string(events[i].first) + ","
             + events[i].second + "]";
    return a + "]";
}

std::string
flagValue(int argc, char **argv, const std::string &key,
          std::vector<std::string> *all = nullptr)
{
    std::string prefix = "--" + key + "=", last;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind(prefix, 0) == 0) {
            last = a.substr(prefix.size());
            if (all)
                all->push_back(last);
        }
    }
    return last;
}

struct Job
{
    const Campaign *campaign = nullptr;
    CampaignJob job;
};

int
matrixMain(int argc, char **argv)
{
    std::vector<std::string> specFiles;
    flagValue(argc, argv, "spec", &specFiles);
    const std::string work = flagValue(argc, argv, "work");
    const std::string out = flagValue(argc, argv, "out");
    const uint32_t threads =
        uint32_t(std::atoi(flagValue(argc, argv, "threads").c_str()));
    if (specFiles.empty() || work.empty() || out.empty() || !threads) {
        std::fprintf(stderr, "perf_layers matrix: missing arguments\n");
        return 2;
    }

    PassLog setup, plain, traced;
    SpanLog main;
    std::vector<std::unique_ptr<Campaign>> campaigns;
    std::vector<Job> jobs;
    for (const auto &f : specFiles) {
        campaigns.push_back(
            std::make_unique<Campaign>(timedExpand(readFile(f), main)));
        for (auto &j : expandCampaignJobs(*campaigns.back()))
            jobs.push_back(Job{campaigns.back().get(), std::move(j)});
    }
    {
        std::vector<CampaignJob> all;
        for (const auto &j : jobs)
            all.push_back(j.job);
        recordAndDecode(all, work + "/recorded", main);
    }
    setup.mergeSpans(main);

    // Plain pass: the same jobs with no decorators and no layer
    // spans; only each job's total is kept, for the overhead ratio.
    {
        std::vector<SpanLog> logs(threads);
        parallelFor(jobs.size(), threads, [&](size_t i, uint32_t t) {
            executeJob(jobs[i].campaign->spec.run, jobs[i].job, false,
                       logs[t], plain);
        });
        for (auto &l : logs)
            plain.mergeSpans(l);
    }

    // Traced pass: the same jobs, every layer call timed.
    {
        std::vector<SpanLog> logs(threads);
        parallelFor(jobs.size(), threads, [&](size_t i, uint32_t t) {
            executeJob(jobs[i].campaign->spec.run, jobs[i].job, true,
                       logs[t], traced);
        });
        for (auto &l : logs)
            traced.mergeSpans(l);
    }

    std::ofstream o(out);
    o << "{\"mode\":\"matrix\",\"threads\":" << threads << ",\"schemes\":";
    writeSchemes(o, traced);
    o << ",\"spans\":[";
    bool first = true;
    writeSpans(o, "setup", setup, first);
    writeSpans(o, "plain", plain, first);
    writeSpans(o, "traced", traced, first);
    o << "]}\n";
    return o ? 0 : 2;
}

/** One scheduled submission of the serve workload. */
struct Planned
{
    uint32_t client = 0;
    std::string tag;  ///< repeat | fresh | overlap | prewarm
    std::string line; ///< the submit request line
    std::string spec; ///< the spec document alone
};

/**
 * One in-process run of the serve schedule: prewarm serially, then
 * the closed-loop clients. The executor seam runs each uncached job
 * through executeJob, plain or traced.
 */
void
servePass(const std::vector<Planned> &plan, uint32_t clients,
          const std::string &cacheDir, bool traced, PassLog &pass)
{
    std::filesystem::remove_all(cacheDir);
    std::mutex logsMtx;
    std::map<std::thread::id, std::unique_ptr<SpanLog>> execLogs;
    ResultCache storeProbe(cacheDir + "-store");

    // The service's default worker count, as the daemon runs it.
    serve::ServiceConfig cfg;
    cfg.cacheDir = cacheDir;
    cfg.executor = [&](const RunConfig &run, const CampaignJob &job) {
        SpanLog *log;
        {
            std::lock_guard<std::mutex> lock(logsMtx);
            auto &slot = execLogs[std::this_thread::get_id()];
            if (!slot)
                slot = std::make_unique<SpanLog>();
            log = slot.get();
        }
        WallTimer timer;
        RunResult r = executeJob(run, job, traced, *log, pass);
        CellRecord rec;
        rec.key = job.key;
        rec.summary = summarize(r);
        rec.seconds = timer.seconds();
        if (traced) {
            // The scheduler publishes the record itself; time the same
            // store into a side directory on the same file system.
            log->open("store");
            storeProbe.store(job.hash, rec);
            log->close();
        }
        return rec;
    };
    serve::Service svc(cfg);
    ResultCache cache(cacheDir);

    auto runOne = [&](const Planned &p, SpanLog &log, Waiter &w,
                      uint64_t client) {
        Campaign c;
        std::vector<CampaignJob> jobs;
        if (traced) {
            c = timedExpand(p.spec, log);
            jobs = expandCampaignJobs(c);
            timedLookups(jobs, cache, log);
        }
        log.open("submit");
        auto events = submitAndWait(svc, client, w, p.line);
        log.close(submitAttrs(events, p.tag));
        if (traced && isFinal(events.back().second)
            && events.back().second.find("\"event\":\"report\"")
                   != std::string::npos) {
            log.open("report");
            CampaignReport rep = buildReport(c, cache, nullptr);
            log.close(",\"bytes\":" + u64(rep.json.size()));
        }
    };

    {
        SpanLog log;
        Waiter w;
        uint64_t client = openWaiter(svc, w);
        for (const auto &p : plan)
            if (p.tag == "prewarm")
                runOne(p, log, w, client);
        svc.closeSession(client);
        pass.mergeSpans(log);
    }
    std::vector<SpanLog> logs(clients);
    std::vector<Waiter> waiters(clients);
    std::vector<std::thread> workers;
    for (uint32_t c = 0; c < clients; ++c)
        workers.emplace_back([&, c] {
            uint64_t client = openWaiter(svc, waiters[c]);
            for (const auto &p : plan)
                if (p.tag != "prewarm" && p.client == c)
                    runOne(p, logs[c], waiters[c], client);
            svc.closeSession(client);
        });
    for (auto &w : workers)
        w.join();
    svc.drain();
    for (auto &l : logs)
        pass.mergeSpans(l);
    for (auto &[id, l] : execLogs)
        pass.mergeSpans(*l);
}

int
serveMain(int argc, char **argv)
{
    const std::string schedule = flagValue(argc, argv, "schedule");
    const std::string work = flagValue(argc, argv, "work");
    const std::string out = flagValue(argc, argv, "out");
    const uint32_t clients =
        uint32_t(std::atoi(flagValue(argc, argv, "clients").c_str()));
    if (schedule.empty() || work.empty() || out.empty() || !clients) {
        std::fprintf(stderr, "perf_layers serve: missing arguments\n");
        return 2;
    }

    // Schedule file: one submission per line, "<client> <tag> <spec>".
    std::vector<Planned> plan;
    std::istringstream in(readFile(schedule));
    std::string row;
    while (std::getline(in, row)) {
        if (row.empty())
            continue;
        std::istringstream fields(row);
        Planned p;
        fields >> p.client >> p.tag;
        std::getline(fields, p.spec);
        JsonValue doc;
        std::string err;
        if (!parseJson(p.spec, &doc, &err)) {
            std::fprintf(stderr, "perf_layers: bad schedule row: %s\n",
                         err.c_str());
            return 2;
        }
        p.line = serve::encodeSubmit(doc, 0);
        plan.push_back(std::move(p));
    }

    PassLog setup, plain, traced;
    {
        // The tracing layer: every workload the schedule names.
        SpanLog log;
        std::vector<CampaignJob> all;
        for (const auto &p : plan) {
            Campaign c = timedExpand(p.spec, log);
            for (auto &j : expandCampaignJobs(c))
                all.push_back(std::move(j));
        }
        recordAndDecode(all, work + "/recorded", log);
        setup.mergeSpans(log);
    }
    servePass(plan, clients, work + "/cache-plain", false, plain);
    servePass(plan, clients, work + "/cache-traced", true, traced);

    std::ofstream o(out);
    o << "{\"mode\":\"serve\",\"clients\":" << clients << ",\"schemes\":";
    writeSchemes(o, traced);
    o << ",\"spans\":[";
    bool first = true;
    writeSpans(o, "setup", setup, first);
    writeSpans(o, "plain", plain, first);
    writeSpans(o, "traced", traced, first);
    o << "]}\n";
    return o ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "matrix")
        return matrixMain(argc, argv);
    if (mode == "serve")
        return serveMain(argc, argv);
    std::fprintf(stderr, "usage: perf_layers matrix|serve [options] "
                         "(see the file comment)\n");
    return 2;
}
