/**
 * @file
 * Tests for the result export (CSV text, the default BENCH_*.json
 * path) and the Oracle vBerti variant (§IV-B3's redundant-prefetch
 * study).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/export.hh"
#include "harness/runner.hh"
#include "prefetchers/berti.hh"
#include "prefetchers/factory.hh"
#include "workloads/generators.hh"

namespace gaze
{
namespace
{

TEST(CsvExport, RendersEscapedCsv)
{
    CsvExport csv("unit");
    csv.header({"a", "b"});
    csv.row({"1", "plain"});
    csv.row({"2", "with,comma"});
    csv.row({"3", "with\"quote"});
    std::string s = csv.toCsv();
    EXPECT_EQ(s,
              "a,b\n"
              "1,plain\n"
              "2,\"with,comma\"\n"
              "3,\"with\"\"quote\"\n");
}

TEST(JsonExport, DefaultPathFollowsResultsDir)
{
    JsonExport doc("unit", "{}");
    setenv("GAZE_RESULTS_DIR", "/tmp/results", 1);
    EXPECT_EQ(doc.defaultPath(), "/tmp/results/BENCH_unit.json");
    unsetenv("GAZE_RESULTS_DIR");
    EXPECT_EQ(doc.defaultPath(), "BENCH_unit.json");
}

TEST(CsvExportDeath, RowWidthMismatch)
{
    CsvExport csv("unit3");
    csv.header({"a", "b"});
    EXPECT_DEATH(csv.row({"only"}), "width mismatch");
}

// ------------------------------------------------------- oracle vberti

TEST(OracleBerti, FactorySpecParses)
{
    auto pf = makePrefetcher("vberti:oracle");
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->name(), "oracle_vberti");
    EXPECT_EQ(makePrefetcher("vberti")->name(), "vberti");
}

TEST(OracleBerti, SuppressesRedundantPrefetches)
{
    // On a stream, plain vBerti re-proposes resident blocks; the
    // oracle filter removes them before they reach the PQ.
    RunConfig cfg;
    cfg.warmupInstr = 50000;
    cfg.simInstr = 100000;
    Runner runner(cfg);
    WorkloadDef w{"oracle-stream", "test", [] {
                      StreamParams p;
                      p.seed = 71;
                      p.records = 250000;
                      return genStream(p);
                  }};
    RunResult plain = runner.run(w, PfSpec{"vberti"});
    RunResult oracle = runner.run(w, PfSpec{"vberti:oracle"});

    double plain_red = plain.l1d.pfIssued
                           ? double(plain.l1d.pfDroppedHit)
                                 / plain.l1d.pfIssued
                           : 0.0;
    double oracle_red = oracle.l1d.pfIssued
                            ? double(oracle.l1d.pfDroppedHit)
                                  / oracle.l1d.pfIssued
                            : 0.0;
    EXPECT_LT(oracle_red, plain_red);

    // The PQ slots freed let at least as many real prefetches fill.
    EXPECT_GE(oracle.l1d.pfFilled + oracle.l2.pfFilled + 50,
              plain.l1d.pfFilled + plain.l2.pfFilled);
}

} // namespace
} // namespace gaze
