/**
 * @file
 * bench_engine — simulator-throughput benchmark for the simulation
 * engines. Runs representative cells under the polled reference loop
 * and the auto engine (the default: the polled loop plus a clock jump
 * to the earliest wake hint whenever every wake gate is closed),
 * verifies their metrics are bit-identical, and reports wall-clock
 * speedup, Minstr/s and the skipped-cycle fraction per cell.
 * Everything lands in BENCH_engine.json — per-cell rows plus a
 * geomean/min aggregate row and the host CPU count, so the perf
 * trajectory (and the host it was measured on) is recorded over time.
 *
 * The headline case is the low-MLP pointer chase (canneal): one
 * dependent load in flight at a time leaves almost every cycle idle,
 * and auto jumps each idle stretch in one step. The dense graph kernel
 * (BFS-17) is the lower bound — little to skip, so auto costs one
 * wake-hint scan per executed cycle over polled; the stream (leslie3d)
 * sits between, its DRAM waits skippable.
 *
 * Timing is best-of-3 per (cell, engine): metrics are identical across
 * repeats by construction (asserted elsewhere), so the fastest wall
 * time is the least noisy estimate — the dense cells finish in tens
 * of milliseconds, where single-run scheduler noise dwarfs the
 * engine-overhead differences being measured. The median of the same
 * repeats is reported alongside (seconds_median / minstr_per_sec_median
 * in the JSON) as the robustness check: best and median diverging
 * flags a noisy host, not a faster simulator.
 *
 *   bench_engine            full comparison (honors GAZE_SIM_SCALE)
 *   bench_engine --quick    short cells; asserts throughput > 0 AND
 *                           polled == auto metric identity, dying
 *                           loudly on any mismatch (the check.sh /
 *                           CTest smoke)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/log.hh"
#include "harness/export.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "harness/wallclock.hh"
#include "workloads/suites.hh"

namespace
{

using namespace gaze;

/**
 * Host-speed reference: a fixed amount of simulator-like host work —
 * an 8192-set, 16-way LRU tag scan (2 MB of tables, about one core's
 * L2) over a seeded, three-quarters-sequential address stream, the
 * kernel perfbench/calib.cc times for the repository benchmark. It
 * shares no code with the simulator, so no simulator change can move
 * it, while a shared host that drifts between speeds moves it with the
 * cells. Returns the kernel's wall seconds.
 */
double
calibSeconds()
{
    constexpr uint32_t kSets = 8192, kWays = 16;
    constexpr long kIterations = 300000;
    std::vector<uint64_t> tag(size_t(kSets) * kWays, ~uint64_t(0));
    std::vector<uint64_t> stamp(size_t(kSets) * kWays, 0);
    uint64_t x = 88172645463325252ull, now = 0, stride = 0;
    WallTimer timer;
    for (long i = 0; i < kIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t addr = (x & 3) ? (stride += 64) : (x & ((1ull << 26) - 1));
        uint64_t line = addr >> 6;
        uint64_t *tg = &tag[(line & (kSets - 1)) * kWays];
        uint64_t *st = &stamp[(line & (kSets - 1)) * kWays];
        uint32_t victim = 0;
        bool hit = false;
        for (uint32_t w = 0; w < kWays && !hit; ++w) {
            hit = tg[w] == (line >> 13);
            if (hit)
                st[w] = ++now;
            else if (st[w] < st[victim])
                victim = w;
        }
        if (!hit) {
            tg[victim] = line >> 13;
            st[victim] = ++now;
        }
    }
    double seconds = timer.seconds();
    // Keep the tables observable so the loop cannot be elided.
    GAZE_ASSERT(now > 0 && stamp[0] <= now, "calibration kernel elided");
    return seconds;
}

/** One engine's timed view of a cell. */
struct EngineRun
{
    RunResult result;
    double bestSeconds = 0.0;
    double medianSeconds = 0.0;
    /** Best calibSeconds() interleaved with this run's repeats. */
    double calibSeconds = 0.0;

    double
    minstrPerSec(double seconds) const
    {
        return seconds > 0.0
                   ? double(result.instructionsRetired) / seconds / 1e6
                   : 0.0;
    }
};

RunConfig
configFor(EngineKind engine)
{
    RunConfig cfg;
    cfg.system.engine = engine;
    return cfg; // phase lengths come from GAZE_SIM_SCALE
}

/** A cell timed under both engines: {polled, auto}. */
struct CellRuns
{
    EngineRun polled, autorun;
};

/**
 * Run @p mix @p repeats times under each engine; keep the first run's
 * metrics (repeats are bit-identical), the fastest wall time, and the
 * median wall time (the headline vs the robustness check). Engines
 * alternate within every round, so both sample the same host-speed
 * phases, and a host calibration run precedes every run, so each
 * engine's times and its host-speed reference share a window.
 */
CellRuns
timedCell(const std::vector<WorkloadDef> &mix, const PfSpec &pf,
          int repeats = 3)
{
    CellRuns cell;
    std::pair<EngineRun *, EngineKind> engines[] = {
        {&cell.polled, EngineKind::Polled},
        {&cell.autorun, EngineKind::Auto}};
    std::vector<double> seconds[2];
    for (int i = 0; i < repeats; ++i) {
        for (size_t e = 0; e < 2; ++e) {
            EngineRun &er = *engines[e].first;
            double calib = calibSeconds();
            if (i == 0 || calib < er.calibSeconds)
                er.calibSeconds = calib;
            RunResult r =
                Runner(configFor(engines[e].second)).runMix(mix, pf);
            seconds[e].push_back(r.wallSeconds);
            if (i == 0)
                er.result = std::move(r);
        }
    }
    for (size_t e = 0; e < 2; ++e) {
        std::sort(seconds[e].begin(), seconds[e].end());
        engines[e].first->bestSeconds = seconds[e].front();
        engines[e].first->medianSeconds =
            seconds[e][seconds[e].size() / 2];
    }
    return cell;
}

/**
 * Die unless @p got reproduced @p ref bit for bit on everything the
 * paper metrics consume: the summary slice, per-core retirement and
 * the total cycle count and the number of ticks whose wake gate was
 * open. The executed/skipped cycle split legitimately differs between
 * engines and is excluded — that is the differential-test contract
 * (tests/test_engine_diff.cc) applied at bench time.
 */
void
checkIdentical(const RunResult &ref, const RunResult &got,
               const std::string &cell)
{
    RunSummary a = summarize(ref);
    RunSummary b = summarize(got);
    bool same = a.ipc == b.ipc && a.pfIssued == b.pfIssued
                && a.pfFilled == b.pfFilled
                && a.pfUseful == b.pfUseful && a.pfLate == b.pfLate
                && a.llcDemandMiss == b.llcDemandMiss
                && ref.engine.cyclesTotal == got.engine.cyclesTotal
                && ref.engine.eventsDispatched
                       == got.engine.eventsDispatched
                && ref.cores.size() == got.cores.size();
    if (same) {
        for (size_t c = 0; c < ref.cores.size(); ++c)
            same = same
                   && ref.cores[c].instructions
                          == got.cores[c].instructions
                   && ref.cores[c].cycles == got.cores[c].cycles;
    }
    if (!same)
        GAZE_FATAL("engine mismatch on ", cell,
                   ": auto metrics differ from the polled reference "
                   "run — engines must be bit-identical");
}

void
jsonEngineBlock(JsonWriter &j, const char *key, const EngineRun &er)
{
    const RunResult &r = er.result;
    j.key(key).beginObject();
    j.field("seconds", er.bestSeconds);
    j.field("minstr_per_sec", er.minstrPerSec(er.bestSeconds));
    j.field("seconds_median", er.medianSeconds);
    j.field("minstr_per_sec_median", er.minstrPerSec(er.medianSeconds));
    j.field("calib_seconds", er.calibSeconds);
    j.field("cycles_total", r.engine.cyclesTotal);
    j.field("cycles_executed", r.engine.cyclesExecuted);
    j.field("cycles_skipped", r.engine.cyclesSkipped);
    j.field("events_dispatched", r.engine.eventsDispatched);
    j.field("skip_fraction", r.engine.skipFraction());
    j.endObject();
}

int
quickSmoke()
{
    // One short cell, default engine: throughput and idle-skip sanity.
    Runner runner(configFor(EngineKind::Auto));
    RunResult r = runner.run(findWorkload("canneal"), PfSpec{});
    double minstr = r.minstrPerSec();
    std::printf("bench_engine quick: canneal x none | "
                "%.3f Minstr/s | %llu/%llu cycles skipped (%.1f%%)\n",
                minstr,
                static_cast<unsigned long long>(r.engine.cyclesSkipped),
                static_cast<unsigned long long>(r.engine.cyclesTotal),
                100.0 * r.engine.skipFraction());
    GAZE_ASSERT(minstr > 0.0, "throughput must be positive");
    GAZE_ASSERT(r.engine.cyclesSkipped > 0,
                "a pointer chase must skip idle cycles");

    // Engine identity gate: auto must reproduce the polled reference
    // bit for bit on a pointer chase (mostly jumped), a stream whose
    // DRAM waits are skippable (leslie3d) and a dense graph kernel
    // (pr.twi, mostly executed), and checkIdentical dies with
    // GAZE_FATAL if it ever does not.
    PfSpec gazePf;
    gazePf.l1 = "gaze";
    for (const char *wname : {"canneal", "leslie3d", "pr.twi"}) {
        std::vector<WorkloadDef> one = {findWorkload(wname)};
        checkIdentical(
            Runner(configFor(EngineKind::Polled)).runMix(one, gazePf),
            Runner(configFor(EngineKind::Auto)).runMix(one, gazePf),
            std::string(wname) + " x gaze");
    }
    std::printf("bench_engine quick: metrics identical across "
                "polled/auto\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gaze;

    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            GAZE_FATAL("unknown option '", argv[i],
                       "' (usage: bench_engine [--quick])");
    }
    if (quick)
        return quickSmoke();

    bench::banner("bench_engine", "polled vs auto engine throughput");

    unsigned hostCpus = std::thread::hardware_concurrency();
    std::printf("host CPUs: %u\n\n", hostCpus);

    // Low-MLP pointer chases (big idle-skip win), a stream whose DRAM
    // waits are skippable, and a dense graph workload (little to skip:
    // the lower bound), with and without a prefetcher.
    const std::vector<std::string> workloads = {"canneal", "mcf",
                                                "leslie3d", "BFS-17"};
    const std::vector<std::string> prefetchers = {"none", "gaze"};

    struct SingleCell : CellRuns
    {
        std::string workload;
        std::string prefetcher;
    };
    std::vector<SingleCell> cells;
    std::vector<double> autoSpeedups;
    for (const auto &wname : workloads) {
        std::vector<WorkloadDef> mix = {findWorkload(wname)};
        for (const auto &pname : prefetchers) {
            PfSpec pf;
            if (pname != "none")
                pf.l1 = pname;
            SingleCell c{timedCell(mix, pf), wname, pname};
            checkIdentical(c.polled.result, c.autorun.result,
                           wname + " x " + pname);
            double sa = c.polled.bestSeconds / c.autorun.bestSeconds;
            autoSpeedups.push_back(sa);
            std::printf(
                "%-10s x %-6s | polled %6.3fs | auto %6.3fs (%4.2fx) | "
                "%4.1f%% skipped\n",
                wname.c_str(), pname.c_str(), c.polled.bestSeconds,
                c.autorun.bestSeconds, sa,
                100.0 * c.autorun.result.engine.skipFraction());
            cells.push_back(std::move(c));
        }
    }

    double minAuto = *std::min_element(autoSpeedups.begin(),
                                       autoSpeedups.end());
    std::printf("\nauto vs polled wall-clock speedup (metrics "
                "bit-identical on every cell): geomean %.2fx | min "
                "%.2fx\n",
                geomean(autoSpeedups), minAuto);

    JsonWriter j;
    j.beginObject();
    j.field("experiment", "engine");
    j.field("scale", simScale());
    j.field("warmup_instructions", RunConfig{}.effectiveWarmup());
    j.field("sim_instructions", RunConfig{}.effectiveSim());
    j.field("host_cpus", uint64_t(hostCpus));
    writeBuildProvenance(j);
    j.key("cells").beginArray();
    for (const auto &c : cells) {
        j.beginObject();
        j.field("workload", c.workload);
        j.field("prefetcher", c.prefetcher);
        jsonEngineBlock(j, "polled", c.polled);
        jsonEngineBlock(j, "auto", c.autorun);
        j.field("wall_speedup",
                c.polled.bestSeconds / c.autorun.bestSeconds);
        j.field("metrics_identical", true); // asserted fatally above
        j.endObject();
    }
    j.endArray();
    j.key("aggregates").beginObject();
    j.key("auto").beginObject();
    j.field("geomean_wall_speedup", geomean(autoSpeedups));
    j.field("min_wall_speedup", minAuto);
    j.endObject();
    j.endObject();
    j.endObject();

    JsonExport doc("engine", j.str());
    std::string path = doc.write();
    std::printf("results: %s\n", path.c_str());
    return 0;
}
