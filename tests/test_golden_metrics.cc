/**
 * @file
 * Golden-metrics regression suite. Records a small fixed-seed trace
 * for one workload per main-evaluation suite, replays each through
 * gaze plus two baseline prefetchers, and pins
 * speedup/accuracy/coverage/IPC against checked-in golden values so a
 * refactor cannot silently shift results. Also asserts the core
 * acceptance property of the trace subsystem: a recorded replay
 * produces metrics IDENTICAL (bitwise) to the in-memory generator run
 * it was recorded from.
 *
 * The simulation scale is pinned via GAZE_SIM_SCALE before any
 * registry call, so the goldens are independent of the environment.
 * To regenerate after an intentional behavior change, run this binary
 * and copy the "golden table" block it prints on failure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "driver/driver.hh"
#include "harness/runner.hh"
#include "tracing/trace_io.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

// Pin the scale before anything in this process can call simScale():
// golden values depend on trace lengths. 0.02 keeps every trace at
// the 10-12k record floor, small enough for a tier-1 test.
const bool kScalePinned = [] {
    setenv("GAZE_SIM_SCALE", "0.02", 1);
    return true;
}();

/** One workload per main suite (kScalePinned keeps them small). */
const std::vector<std::string> &
goldenWorkloads()
{
    static const std::vector<std::string> names = {
        "leslie3d",    // spec06: dense streaming
        "fotonik3d_s", // spec17: recurring footprints w/ conflicts
        "BFS-17",      // ligra: graph compute (frontier + gathers)
        "canneal",     // parsec: pointer chasing
        "classification-p2c0", // cloud: irregular, code-correlated
    };
    return names;
}

/** gaze + two baselines, as the satellite task specifies. */
const std::vector<std::string> &
goldenPrefetchers()
{
    static const std::vector<std::string> names = {"gaze", "ip_stride",
                                                   "sms"};
    return names;
}

RunConfig
goldenConfig()
{
    RunConfig cfg;
    cfg.warmupInstr = 2000;
    cfg.simInstr = 8000;
    return cfg;
}

/** Record every golden workload into @p dir; returns file-backed defs. */
std::vector<WorkloadDef>
recordGoldenTraces(const std::string &dir)
{
    EXPECT_TRUE(kScalePinned);
    std::vector<WorkloadDef> defs;
    for (const auto &name : goldenWorkloads())
        defs.push_back(findWorkload(name));
    for (const auto &w : defs) {
        std::string path = dir + "/" + traceFileName(w.name);
        VectorTrace trace = w.make();
        TraceWriter writer(path, "workload=" + w.name);
        writer.appendAll(trace.data());
        writer.finish();
    }
    return withTraceDir(defs, dir);
}

std::string
goldenDir()
{
    std::string dir = testing::TempDir() + "golden_traces";
    [[maybe_unused]] int rc = std::system(("mkdir -p " + dir).c_str());
    return dir;
}

// ---- golden values --------------------------------------------------

struct Golden
{
    const char *workload;
    const char *prefetcher;
    double speedup;
    double accuracy;
    double coverage;
    double ipc;
};

// Regenerate by running this test binary and copying the printed
// table. Values are deterministic (fixed seeds, fixed scale); the
// tolerances below only absorb cross-toolchain floating-point drift.
const Golden kGolden[] = {
    {"leslie3d", "gaze", 1.027240, 1.000000, 0.048193, 0.798244},
    {"leslie3d", "ip_stride", 1.877279, 0.881720, 0.987952, 1.458789},
    {"leslie3d", "sms", 1.000000, 0.000000, 0.000000, 0.777076},
    {"fotonik3d_s", "gaze", 1.052457, 0.907143, 0.470149, 0.491642},
    {"fotonik3d_s", "ip_stride", 1.000000, 0.000000, 0.000000,
     0.467138},
    {"fotonik3d_s", "sms", 0.935583, 0.509579, 0.244403, 0.437046},
    {"BFS-17", "gaze", 1.026827, 0.250000, 0.035237, 0.197036},
    {"BFS-17", "ip_stride", 1.021896, 0.607843, 0.041920, 0.196089},
    {"BFS-17", "sms", 0.969513, 0.049123, 0.013973, 0.186038},
    {"canneal", "gaze", 1.000000, 0.000000, 0.000000, 0.030865},
    {"canneal", "ip_stride", 1.000000, 0.000000, 0.000000, 0.030865},
    {"canneal", "sms", 0.998667, 0.000000, 0.000000, 0.030824},
    {"classification-p2c0", "gaze", 1.003975, 0.809524, 0.114478,
     0.757312},
    {"classification-p2c0", "ip_stride", 1.000000, 0.000000, 0.000000,
     0.754313},
    {"classification-p2c0", "sms", 1.000000, 0.000000, 0.000000,
     0.754313},
};

constexpr double kRelTol = 0.02;  ///< speedup/ipc: 2% relative
constexpr double kAbsTol = 0.02;  ///< accuracy/coverage: absolute

TEST(GoldenMetrics, RecordedTracesPinResults)
{
    std::vector<WorkloadDef> defs = recordGoldenTraces(goldenDir());
    Runner runner(goldenConfig());

    // Measure everything first so a failure prints the full
    // replacement table, not just the first bad cell.
    struct Row
    {
        std::string workload, prefetcher;
        PrefetchMetrics m;
        double ipc;
    };
    std::vector<Row> rows;
    for (const auto &w : defs) {
        for (const auto &pf_name : goldenPrefetchers()) {
            PfSpec pf;
            pf.l1 = pf_name;
            Row r;
            r.workload = w.name;
            r.prefetcher = pf_name;
            const RunResult &base = runner.baseline(w);
            RunResult res = runner.run(w, pf);
            r.m = computeMetrics(base, res);
            r.ipc = res.ipc();
            rows.push_back(std::move(r));
        }
    }

    ASSERT_EQ(rows.size(), std::size(kGolden));
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const Golden &g = kGolden[i];
        ASSERT_EQ(r.workload, g.workload) << "table order drifted";
        ASSERT_EQ(r.prefetcher, g.prefetcher) << "table order drifted";

        EXPECT_NEAR(r.m.speedup, g.speedup, g.speedup * kRelTol)
            << r.workload << " x " << r.prefetcher;
        EXPECT_NEAR(r.m.accuracy, g.accuracy, kAbsTol)
            << r.workload << " x " << r.prefetcher;
        EXPECT_NEAR(r.m.coverage, g.coverage, kAbsTol)
            << r.workload << " x " << r.prefetcher;
        EXPECT_NEAR(r.ipc, g.ipc, g.ipc * kRelTol)
            << r.workload << " x " << r.prefetcher;
    }

    if (testing::Test::HasNonfatalFailure()) {
        std::printf("// golden table (paste into kGolden):\n");
        for (const auto &r : rows)
            std::printf("    {\"%s\", \"%s\", %.6f, %.6f, %.6f, "
                        "%.6f},\n",
                        r.workload.c_str(), r.prefetcher.c_str(),
                        r.m.speedup, r.m.accuracy, r.m.coverage, r.ipc);
    }
}

// ---- per-scheme attribution pins (obs lifecycle tentpole) -----------

struct SchemeGolden
{
    const char *workload;
    const char *prefetcher;
    uint64_t issued;
    uint64_t filled;
    uint64_t useful;
    uint64_t late;
    uint64_t useless;
};

// Regenerate by running this binary and copying the printed block.
// Lifecycle counts are integers out of a deterministic simulation, so
// they are pinned EXACTLY — any drift is a real behavior change in
// issue/fill/hit/evict attribution, not toolchain noise.
const SchemeGolden kSchemeGolden[] = {
    {"leslie3d", "gaze", 12, 10, 10, 2, 0},
    {"leslie3d", "ip_stride", 808, 115, 82, 164, 0},
    {"fotonik3d_s", "gaze", 289, 217, 191, 63, 0},
    {"fotonik3d_s", "ip_stride", 0, 0, 0, 0, 0},
};

TEST(GoldenMetrics, PerSchemeAttributionPinned)
{
    EXPECT_TRUE(kScalePinned);
    Runner runner(goldenConfig());

    struct Row
    {
        std::string workload, prefetcher;
        SchemeCount c;
    };
    std::vector<Row> rows;
    for (const char *wname : {"leslie3d", "fotonik3d_s"}) {
        WorkloadDef w = findWorkload(wname);
        for (const char *pf_name : {"gaze", "ip_stride"}) {
            PfSpec pf;
            pf.l1 = pf_name;
            RunResult res = runner.run(w, pf);
            ASSERT_EQ(res.schemes.size(), 1u)
                << wname << " x " << pf_name;
            Row r;
            r.workload = wname;
            r.prefetcher = pf_name;
            r.c = res.schemes[0];
            EXPECT_EQ(r.c.name, std::string(pf_name) + "@l1");
            rows.push_back(std::move(r));
        }
    }

    ASSERT_EQ(rows.size(), std::size(kSchemeGolden));
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const SchemeGolden &g = kSchemeGolden[i];
        ASSERT_EQ(r.workload, g.workload) << "table order drifted";
        ASSERT_EQ(r.prefetcher, g.prefetcher) << "table order drifted";
        const std::string ctx = r.workload + " x " + r.prefetcher;
        EXPECT_EQ(r.c.issued, g.issued) << ctx;
        EXPECT_EQ(r.c.filled, g.filled) << ctx;
        EXPECT_EQ(r.c.useful, g.useful) << ctx;
        EXPECT_EQ(r.c.late, g.late) << ctx;
        EXPECT_EQ(r.c.useless, g.useless) << ctx;
    }

    if (testing::Test::HasNonfatalFailure()) {
        std::printf("// scheme golden table (paste into "
                    "kSchemeGolden):\n");
        for (const auto &r : rows)
            std::printf("    {\"%s\", \"%s\", %llu, %llu, %llu, %llu, "
                        "%llu},\n",
                        r.workload.c_str(), r.prefetcher.c_str(),
                        (unsigned long long)r.c.issued,
                        (unsigned long long)r.c.filled,
                        (unsigned long long)r.c.useful,
                        (unsigned long long)r.c.late,
                        (unsigned long long)r.c.useless);
    }
}

// ---- stall counters, pinned at eager per-cycle counts ---------------

/**
 * The three counters a cache may count lazily: a cache whose queued
 * work waits on a full MSHR file or a full lower queue sleeps and
 * settles the refusals it would have repeated (Cache::settle). These
 * values were recorded with a simulator that ticked every blocked
 * cache every cycle and counted each refusal as it happened, so a
 * replay that drops or double-counts a single cycle fails here.
 */
struct StallGolden
{
    const char *label;
    uint64_t l1d[3]; ///< mshrFullStall, pfMshrWait, pfDroppedFull
    uint64_t l2[3];
    uint64_t llc[3];
};

// Regenerate by running this binary and copying the printed block,
// but only from a change that means to move these counts: a change
// to when caches tick must leave them as they are.
const StallGolden kStallGolden[] = {
    {"fotonik3d_s x gaze", {4394, 1751, 921}, {1508, 4706, 1667},
     {0, 0, 0}},
    {"fotonik3d_s x sms", {6618, 3325, 1719}, {2703, 6189, 3150},
     {0, 0, 0}},
    {"2core fotonik3d_s+classification-p2c0 x gaze", {3989, 790, 110},
     {507, 3498, 555}, {0, 0, 0}},
};

TEST(GoldenMetrics, StallCountersPinned)
{
    EXPECT_TRUE(kScalePinned);
    struct Cell
    {
        std::string label;
        std::vector<std::string> mix;
        const char *prefetcher;
        bool doubleBudget; ///< the mix cells' 2x phases
    };
    const std::vector<Cell> cells = {
        {"fotonik3d_s x gaze", {"fotonik3d_s"}, "gaze", false},
        {"fotonik3d_s x sms", {"fotonik3d_s"}, "sms", false},
        {"2core fotonik3d_s+classification-p2c0 x gaze",
         {"fotonik3d_s", "classification-p2c0"}, "gaze", true},
    };

    struct Row
    {
        std::string label;
        uint64_t v[3][3];
    };
    std::vector<Row> rows;
    for (const Cell &cell : cells) {
        RunConfig cfg = goldenConfig();
        if (cell.doubleBudget) {
            cfg.warmupInstr *= 2;
            cfg.simInstr *= 2;
        }
        std::vector<WorkloadDef> mix;
        for (const auto &w : cell.mix)
            mix.push_back(findWorkload(w));
        PfSpec pf;
        pf.l1 = cell.prefetcher;
        RunResult res = Runner(cfg).runMix(mix, pf);
        Row r;
        r.label = cell.label;
        const CacheStats *levels[3] = {&res.l1d, &res.l2, &res.llc};
        for (int l = 0; l < 3; ++l) {
            r.v[l][0] = levels[l]->mshrFullStall;
            r.v[l][1] = levels[l]->pfMshrWait;
            r.v[l][2] = levels[l]->pfDroppedFull;
        }
        rows.push_back(r);
    }

    ASSERT_EQ(rows.size(), std::size(kStallGolden));
    const char *names[3] = {"mshrFullStall", "pfMshrWait",
                            "pfDroppedFull"};
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const StallGolden &g = kStallGolden[i];
        ASSERT_EQ(r.label, g.label) << "table order drifted";
        const uint64_t *want[3] = {g.l1d, g.l2, g.llc};
        const char *level[3] = {"l1d", "l2", "llc"};
        for (int l = 0; l < 3; ++l) {
            for (int f = 0; f < 3; ++f)
                EXPECT_EQ(r.v[l][f], want[l][f])
                    << r.label << " " << level[l] << "." << names[f];
        }
    }

    if (testing::Test::HasNonfatalFailure()) {
        std::printf("// stall golden table (paste into "
                    "kStallGolden):\n");
        for (const auto &r : rows) {
            std::printf("    {\"%s\"", r.label.c_str());
            for (int l = 0; l < 3; ++l)
                std::printf(", {%llu, %llu, %llu}",
                            (unsigned long long)r.v[l][0],
                            (unsigned long long)r.v[l][1],
                            (unsigned long long)r.v[l][2]);
            std::printf("},\n");
        }
    }
}

// ---- multi-core mix pins, per engine --------------------------------

/**
 * A 2-core and a 4-core mix cell pinned the same way the single-core
 * table is: golden values recorded from the default (auto) engine,
 * and the polled reference engine required to reproduce them
 * BITWISE — the golden tolerance only absorbs toolchain drift of the
 * reference itself, never cross-engine drift.
 */
struct MixGolden
{
    const char *label;
    double speedup;
    double accuracy;
    double coverage;
    double ipc;
};

// Regenerate by running this binary and copying the printed block.
// The mixes were chosen for non-degenerate metrics at this scale:
// fotonik3d_s + classification-p2c0 keep missing (and being covered)
// in a mix, where most other pairings collapse to all-L1-hit cores
// whose cells pin nothing.
const MixGolden kMixGolden[] = {
    {"2core fotonik3d_s+classification-p2c0 x gaze", 1.068587,
     0.891441, 0.531579, 1.209264},
    {"4core fotonik3d_s+classification-p2c0+fotonik3d_s"
     "+classification-p2c0 x gaze",
     1.244091, 0.911495, 0.566257, 1.076669},
};

TEST(GoldenMetrics, MultiCoreMixCellsPinnedPerEngine)
{
    EXPECT_TRUE(kScalePinned);
    const std::vector<std::vector<std::string>> mixes = {
        {"fotonik3d_s", "classification-p2c0"},
        {"fotonik3d_s", "classification-p2c0", "fotonik3d_s",
         "classification-p2c0"},
    };
    PfSpec pf;
    pf.l1 = "gaze";

    struct Row
    {
        std::string label;
        PrefetchMetrics m;
        double ipc;
    };
    std::vector<Row> rows;
    for (size_t mi = 0; mi < mixes.size(); ++mi) {
        std::vector<WorkloadDef> mix;
        std::string label =
            std::to_string(mixes[mi].size()) + "core ";
        for (size_t i = 0; i < mixes[mi].size(); ++i) {
            mix.push_back(findWorkload(mixes[mi][i]));
            label += (i ? "+" : "") + mixes[mi][i];
        }
        label += " x gaze";

        // Reference: the default (auto) engine. Budgets are 2x
        // the single-core ones: with per-core streams this small,
        // the shared LLC barely sees pressure and every metric
        // degenerates to its no-op value, pinning nothing.
        RunConfig cfg = goldenConfig();
        cfg.warmupInstr = 4000;
        cfg.simInstr = 16000;
        cfg.system.engine = EngineKind::Auto;
        Runner runner(cfg);
        const RunResult &base = runner.baselineMix(mix);
        RunResult ref = runner.runMix(mix, pf);
        Row r;
        r.label = label;
        r.m = computeMetrics(base, ref);
        r.ipc = ref.ipc();
        rows.push_back(r);

        // The polled engine must reproduce the reference cell bit for
        // bit (same contract as test_engine_diff, here pinned to the
        // golden budgets).
        RunConfig pcfg = cfg;
        pcfg.system.engine = EngineKind::Polled;
        RunResult got = Runner(pcfg).runMix(mix, pf);
        EXPECT_EQ(ref.ipc(), got.ipc()) << label << " / polled";
        ASSERT_EQ(ref.cores.size(), got.cores.size());
        for (size_t c = 0; c < ref.cores.size(); ++c) {
            EXPECT_EQ(ref.cores[c].instructions,
                      got.cores[c].instructions)
                << label << " / polled core " << c;
            EXPECT_EQ(ref.cores[c].cycles, got.cores[c].cycles)
                << label << " / polled core " << c;
        }
        EXPECT_EQ(ref.engine.cyclesTotal, got.engine.cyclesTotal)
            << label << " / polled";
        EXPECT_EQ(ref.llc.loadMiss, got.llc.loadMiss)
            << label << " / polled";
        EXPECT_EQ(ref.llc.rfoMiss, got.llc.rfoMiss)
            << label << " / polled";
        EXPECT_EQ(ref.dram.reads, got.dram.reads) << label << " / polled";
    }

    ASSERT_EQ(rows.size(), std::size(kMixGolden));
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const MixGolden &g = kMixGolden[i];
        ASSERT_EQ(r.label, g.label) << "table order drifted";
        EXPECT_NEAR(r.m.speedup, g.speedup, g.speedup * kRelTol)
            << r.label;
        EXPECT_NEAR(r.m.accuracy, g.accuracy, kAbsTol) << r.label;
        EXPECT_NEAR(r.m.coverage, g.coverage, kAbsTol) << r.label;
        EXPECT_NEAR(r.ipc, g.ipc, g.ipc * kRelTol) << r.label;
    }

    if (testing::Test::HasNonfatalFailure()) {
        std::printf("// mix golden table (paste into kMixGolden):\n");
        for (const auto &r : rows)
            std::printf("    {\"%s\", %.6f, %.6f, %.6f, %.6f},\n",
                        r.label.c_str(), r.m.speedup, r.m.accuracy,
                        r.m.coverage, r.ipc);
    }
}

// ---- replay identity (the tentpole's acceptance criterion) ----------

TEST(GoldenMetrics, FileReplayIdenticalToGeneratorRun)
{
    std::string dir = goldenDir();
    recordGoldenTraces(dir);

    // gaze_sim's entry point, once from the generators and once
    // replaying the recorded files (expansion rebinds the workloads).
    GazeSimOptions genOpt;
    genOpt.spec.name = "golden_gen";
    genOpt.spec.prefetchers = {"gaze", "ip_stride"};
    genOpt.spec.workloadNames = goldenWorkloads();
    genOpt.spec.run = goldenConfig();
    genOpt.threads = 4;
    genOpt.verbose = false;

    GazeSimOptions fileOpt = genOpt;
    fileOpt.spec.name = "golden_file";
    fileOpt.spec.traceDir = dir;

    GazeSimRun gen = runGazeSim(expandCampaign(genOpt.spec), genOpt);
    GazeSimRun file = runGazeSim(expandCampaign(fileOpt.spec), fileOpt);

    const auto &genCells = gen.campaign.cells;
    const auto &fileCells = file.campaign.cells;
    ASSERT_EQ(genCells.size(), fileCells.size());
    for (size_t i = 0; i < genCells.size(); ++i) {
        const std::string &w = genCells[i].workload.name;
        ASSERT_EQ(w, fileCells[i].workload.name);
        ASSERT_EQ(genCells[i].prefetcher, fileCells[i].prefetcher);
        ASSERT_TRUE(genCells[i].workload.traceFile.empty());
        ASSERT_FALSE(fileCells[i].workload.traceFile.empty());
        const RunSummary &a = gen.records.at(genCells[i].hash).summary;
        const RunSummary &b = file.records.at(fileCells[i].hash).summary;
        const RunSummary &aBase =
            gen.records.at(genCells[i].baselineHash).summary;
        const RunSummary &bBase =
            file.records.at(fileCells[i].baselineHash).summary;
        const PrefetchMetrics &am = gen.metrics.cells[i];
        const PrefetchMetrics &bm = file.metrics.cells[i];
        // Bitwise identity, not tolerance: the replay feeds the exact
        // same record stream into a deterministic simulator.
        EXPECT_EQ(a.ipc, b.ipc) << w << " x " << genCells[i].prefetcher;
        EXPECT_EQ(aBase.ipc, bBase.ipc) << w;
        EXPECT_EQ(am.speedup, bm.speedup) << w;
        EXPECT_EQ(am.accuracy, bm.accuracy) << w;
        EXPECT_EQ(am.coverage, bm.coverage) << w;
        EXPECT_EQ(am.lateFraction, bm.lateFraction) << w;
        EXPECT_EQ(am.pfIssued, bm.pfIssued) << w;
        EXPECT_EQ(am.pfUseful, bm.pfUseful) << w;
        EXPECT_EQ(am.llcMissPf, bm.llcMissPf) << w;
    }
}

} // namespace
} // namespace gaze
