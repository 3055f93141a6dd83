#include "driver/driver.hh"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "driver/cli.hh"
#include "harness/export.hh"
#include "harness/table.hh"
#include "obs/trace.hh"

namespace gaze
{
namespace
{

/**
 * Combined --obs-timeline document: every job's sampler rows, each
 * prefixed with the (prefetcher, workload) cell identity so one CSV
 * holds the whole matrix. Deterministic: baselines ("none") first,
 * then cells in matrix order, each job once; columns in registry
 * (name-sorted) order.
 */
std::string
timelineCsv(const Campaign &campaign,
            const std::map<uint64_t, obs::SampleSeries> &timelines)
{
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<uint64_t> order;
    std::set<uint64_t> listed;
    for (const auto &b : campaign.baselines)
        if (listed.insert(b.hash).second) {
            labels.emplace_back("none", b.workload.name);
            order.push_back(b.hash);
        }
    for (const auto &cell : campaign.cells)
        if (listed.insert(cell.hash).second) {
            labels.emplace_back(cell.prefetcher, cell.workload.name);
            order.push_back(cell.hash);
        }

    const obs::SampleSeries *first = nullptr;
    for (uint64_t hash : order) {
        auto it = timelines.find(hash);
        if (it != timelines.end() && !it->second.names.empty()) {
            first = &it->second;
            break;
        }
    }

    std::string csv = "prefetcher,workload,cycle";
    if (first)
        for (const auto &n : first->names) {
            csv += ',';
            csv += n;
        }
    csv += '\n';

    for (size_t i = 0; i < order.size(); ++i) {
        auto it = timelines.find(order[i]);
        if (it == timelines.end())
            continue;
        for (const auto &row : it->second.rows) {
            csv += labels[i].first;
            csv += ',';
            csv += labels[i].second;
            csv += ',';
            csv += std::to_string(row.cycle);
            for (uint64_t v : row.values) {
                csv += ',';
                csv += std::to_string(v);
            }
            csv += '\n';
        }
    }
    return csv;
}

double
skipFraction(uint64_t executed, uint64_t skipped)
{
    uint64_t cycles = executed + skipped;
    return cycles ? double(skipped) / double(cycles) : 0.0;
}

} // namespace

GazeSimRun
runGazeSim(Campaign campaign, const GazeSimOptions &opt)
{
    // Observability: the run owns the trace sink; every job's Runner
    // reaches it through the spec's RunConfig, which is no part of any
    // cell's identity.
    std::unique_ptr<obs::TraceSink> traceSink;
    if (!opt.obsTracePath.empty()) {
        traceSink = std::make_unique<obs::TraceSink>();
        obs::setGlobalTrace(traceSink.get());
        campaign.spec.run.obs.trace = traceSink.get();
    }

    GazeSimRun run;
    std::map<uint64_t, obs::SampleSeries> timelines;
    std::mutex collectMtx;
    CampaignRunOptions runOpt;
    runOpt.threads = opt.threads;
    runOpt.verbose = opt.verbose;
    runOpt.onCell = [&](const CampaignJob &job, const CellRecord &rec,
                        const obs::SampleSeries &samples) {
        std::lock_guard<std::mutex> lock(collectMtx);
        run.records.emplace(job.hash, rec);
        if (!opt.obsTimelinePath.empty())
            timelines.emplace(job.hash, samples);
    };
    run.stats = runCampaign(campaign, nullptr, runOpt);

    // Publish the obs artifacts; the global host-span hook must come
    // down before the sink dies.
    if (traceSink) {
        obs::setGlobalTrace(nullptr);
        campaign.spec.run.obs.trace = nullptr;
    }
    if (!opt.obsTimelinePath.empty())
        writeTextFile(opt.obsTimelinePath,
                      timelineCsv(campaign, timelines));
    if (traceSink)
        traceSink->writeTo(opt.obsTracePath);

    for (const auto &entry : run.records) {
        const RunSummary &s = entry.second.summary;
        run.totalInstructions += s.instructionsRetired;
        run.totalEvents += s.eventsDispatched;
        run.totalCyclesExecuted += s.cyclesExecuted;
        run.totalCyclesSkipped += s.cyclesSkipped;
    }
    run.metrics = computeCampaignMetrics(campaign, run.records);
    run.campaign = std::move(campaign);
    return run;
}

std::string
gazeSimJson(const GazeSimRun &run)
{
    const Campaign &campaign = run.campaign;
    const CampaignSpec &spec = campaign.spec;
    const char *engine = engineKindName(spec.run.system.engine);

    JsonWriter j;
    j.beginObject();
    j.field("experiment", spec.name);

    // gaze_sim's level and core axes have one entry each.
    j.key("config").beginObject();
    j.field("scale", simScale());
    j.field("warmup_instructions", spec.run.effectiveWarmup());
    j.field("sim_instructions", spec.run.effectiveSim());
    j.field("cores", uint64_t(spec.coreCounts.front()));
    j.field("level", spec.levels.front());
    j.field("threads", uint64_t(run.stats.threadsUsed));
    j.field("engine", engine);
    // Wall-clock throughput fields are only comparable between runs
    // on a like host; record the machine class alongside them.
    // gaze-lint: allow(raw-thread): hardware_concurrency() query
    // only, no thread is created
    j.field("host_cpus", uint64_t(std::thread::hardware_concurrency()));
    writeBuildProvenance(j);
    // Trace provenance: where the workload streams came from, so a
    // result document is reproducible on its own. trace_dir is null
    // for generator runs (traces regenerated from RNG state).
    if (spec.traceDir.empty())
        j.key("trace_dir").nullValue();
    else
        j.field("trace_dir", spec.traceDir);
    j.endObject();

    j.key("prefetchers").beginArray();
    for (const auto &p : spec.prefetchers)
        j.value(p);
    j.endArray();

    j.key("workloads").beginArray();
    for (const auto &w : campaign.workloads) {
        j.beginObject();
        j.field("name", w.name);
        j.field("suite", w.suite);
        j.field("source",
                w.traceFile.empty() ? "generator" : "trace_file");
        if (!w.traceFile.empty())
            j.field("trace_file", w.traceFile);
        j.endObject();
    }
    j.endArray();

    j.key("cells").beginArray();
    for (size_t i = 0; i < campaign.cells.size(); ++i) {
        const CampaignCell &cell = campaign.cells[i];
        const CellRecord &rec = run.records.at(cell.hash);
        const RunSummary &s = rec.summary;
        j.beginObject();
        j.field("prefetcher", cell.prefetcher);
        j.field("workload", cell.workload.name);
        j.field("suite", cell.workload.suite);
        writeCellMetrics(j, run.metrics.cells[i], s.ipc,
                         run.records.at(cell.baselineHash).summary.ipc);
        j.field("seconds", rec.seconds);
        j.field("events_dispatched", s.eventsDispatched);
        j.field("cycles_executed", s.cyclesExecuted);
        j.field("cycles_skipped", s.cyclesSkipped);
        j.field("minstr_per_sec", s.minstrPerSec);
        j.endObject();
    }
    j.endArray();

    j.key("suites").beginArray();
    for (const auto &row : run.metrics.suites) {
        j.beginObject();
        j.field("prefetcher", row.prefetcher);
        j.field("suite", row.suite);
        j.field("workloads", uint64_t(row.workloads));
        j.field("speedup", row.summary.speedup);
        j.field("accuracy", row.summary.accuracy);
        j.field("coverage", row.summary.coverage);
        j.field("late_fraction", row.summary.lateFraction);
        j.endObject();
    }
    j.endArray();

    // Simulation speed of the whole matrix: how fast the simulator
    // itself ran (every matrix run reports it; bench_engine tracks it
    // over time in BENCH_engine.json).
    j.key("engine").beginObject();
    j.field("kind", engine);
    j.field("instructions_simulated", run.totalInstructions);
    j.field("events_dispatched", run.totalEvents);
    j.field("cycles_executed", run.totalCyclesExecuted);
    j.field("cycles_skipped", run.totalCyclesSkipped);
    j.field("skip_fraction", skipFraction(run.totalCyclesExecuted,
                                          run.totalCyclesSkipped));
    j.field("minstr_per_sec", run.minstrPerSec());
    j.endObject();

    j.field("elapsed_seconds", run.stats.seconds);
    j.endObject();
    return j.str();
}

std::string
gazeSimEngineTable(const GazeSimRun &run)
{
    TextTable t({"prefetcher", "workload", "minstr/s", "skipped",
                 "events", "late"});
    const auto &cells = run.campaign.cells;
    for (size_t i = 0; i < cells.size(); ++i) {
        const RunSummary &s = run.records.at(cells[i].hash).summary;
        t.addRow({cells[i].prefetcher, cells[i].workload.name,
                  TextTable::fmt(s.minstrPerSec),
                  TextTable::pct(
                      skipFraction(s.cyclesExecuted, s.cyclesSkipped)),
                  std::to_string(s.eventsDispatched),
                  std::to_string(run.metrics.cells[i].pfLate)});
    }
    std::string out = t.toString();

    char line[256];
    std::snprintf(line, sizeof(line),
                  "\nengine: %s | %.2f Minstr in %.2fs -> %.2f "
                  "Minstr/s aggregate | %.1f%% of cycles skipped\n",
                  engineKindName(run.campaign.spec.run.system.engine),
                  double(run.totalInstructions) / 1e6,
                  run.stats.seconds, run.minstrPerSec(),
                  100.0 * skipFraction(run.totalCyclesExecuted,
                                       run.totalCyclesSkipped));
    out += line;
    return out;
}

std::string
gazeSimSchemeTable(const GazeSimRun &run)
{
    bool any = false;
    for (const auto &m : run.metrics.cells)
        any = any || !m.schemes.empty();
    if (!any)
        return "";

    TextTable t({"prefetcher", "workload", "scheme", "issued",
                 "filled", "useful", "late", "useless", "accuracy",
                 "pollution", "fill2use"});
    const auto &cells = run.campaign.cells;
    for (size_t i = 0; i < cells.size(); ++i) {
        for (const SchemeMetrics &s : run.metrics.cells[i].schemes) {
            t.addRow({cells[i].prefetcher, cells[i].workload.name,
                      s.name, std::to_string(s.issued),
                      std::to_string(s.filled),
                      std::to_string(s.useful),
                      std::to_string(s.late),
                      std::to_string(s.useless),
                      TextTable::pct(s.accuracy),
                      TextTable::pct(s.pollution),
                      TextTable::fmt(s.avgFillToUse)});
        }
    }
    return t.toString();
}

std::string
gazeSimSuiteTable(const GazeSimRun &run)
{
    TextTable t({"prefetcher", "suite", "workloads", "speedup",
                 "accuracy", "coverage", "late"});
    for (const auto &s : run.metrics.suites) {
        t.addRow({s.prefetcher, s.suite, std::to_string(s.workloads),
                  TextTable::fmt(s.summary.speedup),
                  TextTable::pct(s.summary.accuracy),
                  TextTable::pct(s.summary.coverage),
                  TextTable::pct(s.summary.lateFraction)});
    }
    return t.toString();
}

} // namespace gaze
