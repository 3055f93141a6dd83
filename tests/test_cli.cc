/**
 * @file
 * Driver argument-parsing tests for both CLIs: happy-path expansion of
 * suites/workloads/prefetchers, and the fatal error paths — unknown
 * flags, bad suite/workload/prefetcher names, junk numeric values,
 * malformed --trace-dir — which must die with a diagnostic naming the
 * offending argument, never run a matrix.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "tracing/trace_io.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

using Args = std::vector<std::string>;

// ---- gaze_sim: happy paths ------------------------------------------

TEST(GazeSimCli, DefaultsExpandMainSuites)
{
    GazeSimOptions opt = parseGazeSimArgs({});
    EXPECT_FALSE(opt.showHelp);
    EXPECT_FALSE(opt.showList);
    EXPECT_EQ(opt.spec.prefetchers,
              (std::vector<std::string>{"ip_stride", "gaze"}));
    EXPECT_EQ(opt.spec.level, "l1");
    EXPECT_EQ(opt.spec.cores, 1u);
    EXPECT_TRUE(opt.spec.traceDir.empty());

    size_t main_count = 0;
    for (const auto &s : mainSuites())
        main_count += suiteWorkloads(s).size();
    EXPECT_EQ(opt.spec.workloads.size(), main_count);
    for (const auto &w : opt.spec.workloads)
        EXPECT_TRUE(w.traceFile.empty());
}

TEST(GazeSimCli, ExplicitFlagsParse)
{
    GazeSimOptions opt = parseGazeSimArgs(
        {"--prefetchers=gaze,pmp", "--workloads=mcf,leslie3d",
         "--level=l2", "--cores=4", "--threads=8", "--warmup=1234",
         "--sim=5678", "--name=exp1", "--out=/tmp/x.json", "--quiet"});
    EXPECT_EQ(opt.spec.prefetchers,
              (std::vector<std::string>{"gaze", "pmp"}));
    ASSERT_EQ(opt.spec.workloads.size(), 2u);
    EXPECT_EQ(opt.spec.workloads[0].name, "mcf");
    EXPECT_EQ(opt.spec.workloads[1].name, "leslie3d");
    EXPECT_EQ(opt.spec.level, "l2");
    EXPECT_EQ(opt.spec.cores, 4u);
    EXPECT_EQ(opt.spec.threads, 8u);
    EXPECT_EQ(opt.spec.run.warmupInstr, 1234u);
    EXPECT_EQ(opt.spec.run.simInstr, 5678u);
    EXPECT_EQ(opt.spec.name, "exp1");
    EXPECT_EQ(opt.outPath, "/tmp/x.json");
    EXPECT_FALSE(opt.spec.verbose);
}

TEST(GazeSimCli, WorkloadsOverrideSuites)
{
    GazeSimOptions opt =
        parseGazeSimArgs({"--suites=ligra", "--workloads=mcf"});
    ASSERT_EQ(opt.spec.workloads.size(), 1u);
    EXPECT_EQ(opt.spec.workloads[0].name, "mcf");
}

TEST(GazeSimCli, HelpAndListShortCircuit)
{
    EXPECT_TRUE(parseGazeSimArgs({"--help"}).showHelp);
    EXPECT_TRUE(parseGazeSimArgs({"-h"}).showHelp);
    EXPECT_TRUE(parseGazeSimArgs({"--list"}).showList);
    // Junk after --help is never reached; parse returns early.
    EXPECT_TRUE(parseGazeSimArgs({"--help", "--bogus"}).showHelp);
}

TEST(GazeSimCli, TraceDirRebindsWorkloads)
{
    std::string dir = testing::TempDir() + "cli_traces";
    ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
    const WorkloadDef &w = findWorkload("mcf");
    VectorTrace trace = w.make();
    TraceWriter writer(dir + "/" + traceFileName("mcf"), "t");
    writer.appendAll(trace.data());
    writer.finish();

    GazeSimOptions opt = parseGazeSimArgs(
        {"--workloads=mcf", "--trace-dir=" + dir});
    EXPECT_EQ(opt.spec.traceDir, dir);
    ASSERT_EQ(opt.spec.workloads.size(), 1u);
    EXPECT_EQ(opt.spec.workloads[0].traceFile,
              dir + "/" + traceFileName("mcf"));
}

// ---- gaze_sim: fatal error paths ------------------------------------

TEST(GazeSimCli, ListPrefetchersShortCircuits)
{
    GazeSimOptions text = parseGazeSimArgs({"--list-prefetchers"});
    EXPECT_EQ(text.listPrefetchers,
              GazeSimOptions::ListPrefetchers::Text);
    GazeSimOptions json =
        parseGazeSimArgs({"--list-prefetchers=json"});
    EXPECT_EQ(json.listPrefetchers,
              GazeSimOptions::ListPrefetchers::Json);
}

TEST(GazeSimCli, PrefetchersCanonicalizeAndDedupe)
{
    // Aliases resolve, options sort, defaults elide — and two
    // spellings of the same variant collapse to one matrix row.
    GazeSimOptions opt = parseGazeSimArgs(
        {"--prefetchers=berti,gaze:region=2048:n=1,"
         "gaze:n=1:region=2048,gaze:region=4096",
         "--workloads=mcf"});
    EXPECT_EQ(opt.spec.prefetchers,
              (std::vector<std::string>{"vberti",
                                        "gaze:n=1:region=2048",
                                        "gaze"}));
}

TEST(GazeSimCliDeath, UnknownFlag)
{
    EXPECT_DEATH(parseGazeSimArgs({"--frobnicate"}),
                 "unknown option '--frobnicate'");
    EXPECT_DEATH(parseGazeSimArgs({"positional"}),
                 "unknown option 'positional'");
}

TEST(GazeSimCli, EngineDefaultsToAutoAndAcceptsPolled)
{
    EXPECT_EQ(parseGazeSimArgs({}).spec.run.system.engine,
              EngineKind::Auto);
    EXPECT_EQ(parseGazeSimArgs({"--engine=polled"})
                  .spec.run.system.engine,
              EngineKind::Polled);
    EXPECT_EQ(parseGazeSimArgs({"--engine=auto"}).spec.run.system.engine,
              EngineKind::Auto);
}

TEST(GazeSimCliDeath, RemovedEngineModes)
{
    // No alias for the retired pure-event mode: it dies naming the
    // engines that exist.
    EXPECT_DEATH(parseGazeSimArgs({"--engine=event"}),
                 "unknown simulation engine 'event' "
                 "\\(known: polled, auto\\)");
    EXPECT_DEATH(parseGazeSimArgs({"--sim-threads=4"}),
                 "unknown option '--sim-threads=4'");
}

TEST(GazeSimCliDeath, BadWorkloadAndSuiteNames)
{
    EXPECT_DEATH(parseGazeSimArgs({"--workloads=not_a_workload"}),
                 "unknown workload 'not_a_workload'");
    EXPECT_DEATH(parseGazeSimArgs({"--suites=not_a_suite"}),
                 "unknown suite 'not_a_suite'");
    EXPECT_DEATH(parseGazeSimArgs({"--workloads="}),
                 "at least one name");
    EXPECT_DEATH(parseGazeSimArgs({"--suites="}),
                 "at least one suite");
}

TEST(GazeSimCliDeath, BadPrefetcherSpec)
{
    EXPECT_DEATH(parseGazeSimArgs({"--prefetchers=warp_drive"}),
                 "warp_drive");
    EXPECT_DEATH(parseGazeSimArgs({"--prefetchers="}),
                 "at least one spec");
    // Schema violations die at parse time with the offending spec.
    EXPECT_DEATH(parseGazeSimArgs({"--prefetchers=gaze:typo=1"}),
                 "unknown option 'typo'");
    EXPECT_DEATH(parseGazeSimArgs({"--prefetchers=gaze:n=abc"}),
                 "unsigned integer");
    EXPECT_DEATH(parseGazeSimArgs({"--list-prefetchers=yaml"}),
                 "--list-prefetchers takes no value or =json");
}

TEST(GazeSimCliDeath, BadNumbers)
{
    EXPECT_DEATH(parseGazeSimArgs({"--cores=zero"}),
                 "bad numeric value for --cores");
    EXPECT_DEATH(parseGazeSimArgs({"--cores=-1"}),
                 "bad numeric value for --cores");
    EXPECT_DEATH(parseGazeSimArgs({"--cores=10000"}),
                 "--cores out of range");
    EXPECT_DEATH(parseGazeSimArgs({"--warmup=1e9"}),
                 "bad numeric value for --warmup");
}

TEST(GazeSimCliDeath, MalformedTraceDir)
{
    EXPECT_DEATH(parseGazeSimArgs({"--trace-dir="}),
                 "--trace-dir needs a directory");
    // Missing directory: every workload must name its absent file and
    // the gaze_trace command that would create it.
    EXPECT_DEATH(
        parseGazeSimArgs(
            {"--workloads=mcf", "--trace-dir=/nonexistent_dir_xyz"}),
        "no usable trace");
    // A directory that exists but holds no .gzt for the workload.
    std::string empty_dir = testing::TempDir() + "cli_empty";
    ASSERT_EQ(std::system(("mkdir -p " + empty_dir).c_str()), 0);
    EXPECT_DEATH(parseGazeSimArgs({"--workloads=mcf",
                                   "--trace-dir=" + empty_dir}),
                 "gaze_trace record --workloads=mcf");
}

// ---- gaze_trace -----------------------------------------------------

TEST(GazeTraceCli, HelpByDefault)
{
    EXPECT_EQ(parseGazeTraceArgs({}).command,
              GazeTraceOptions::Command::Help);
    EXPECT_EQ(parseGazeTraceArgs({"--help"}).command,
              GazeTraceOptions::Command::Help);
    EXPECT_EQ(parseGazeTraceArgs({"help"}).command,
              GazeTraceOptions::Command::Help);
}

TEST(GazeTraceCli, RecordExpandsWorkloads)
{
    GazeTraceOptions opt = parseGazeTraceArgs(
        {"record", "--workloads=mcf,leslie3d", "--out-dir=/tmp/t"});
    EXPECT_EQ(opt.command, GazeTraceOptions::Command::Record);
    ASSERT_EQ(opt.workloads.size(), 2u);
    EXPECT_EQ(opt.workloads[0].name, "mcf");
    EXPECT_EQ(opt.outDir, "/tmp/t");

    GazeTraceOptions by_suite =
        parseGazeTraceArgs({"record", "--suites=parsec"});
    EXPECT_EQ(by_suite.workloads.size(),
              suiteWorkloads("parsec").size());
    EXPECT_EQ(by_suite.outDir, ".");

    // Default: one file per main-evaluation-suite workload.
    GazeTraceOptions all = parseGazeTraceArgs({"record"});
    size_t main_count = 0;
    for (const auto &s : mainSuites())
        main_count += suiteWorkloads(s).size();
    EXPECT_EQ(all.workloads.size(), main_count);
}

TEST(GazeTraceCli, InfoAndValidateCollectFiles)
{
    GazeTraceOptions info =
        parseGazeTraceArgs({"info", "a.gzt", "b.gzt"});
    EXPECT_EQ(info.command, GazeTraceOptions::Command::Info);
    EXPECT_EQ(info.files, (std::vector<std::string>{"a.gzt", "b.gzt"}));
    EXPECT_FALSE(info.jsonOutput);

    GazeTraceOptions val = parseGazeTraceArgs({"validate", "c.gzt"});
    EXPECT_EQ(val.command, GazeTraceOptions::Command::Validate);
    EXPECT_EQ(val.files, (std::vector<std::string>{"c.gzt"}));
}

TEST(GazeTraceCli, InfoJsonFlag)
{
    GazeTraceOptions info =
        parseGazeTraceArgs({"info", "--json", "a.gzt"});
    EXPECT_TRUE(info.jsonOutput);
    EXPECT_EQ(info.files, (std::vector<std::string>{"a.gzt"}));

    // --json is info-only; for validate it stays a flag typo.
    EXPECT_DEATH(parseGazeTraceArgs({"validate", "--json", "a.gzt"}),
                 "unknown validate option");
}

TEST(GazeTraceCliDeath, BadCommandsAndOperands)
{
    EXPECT_DEATH(parseGazeTraceArgs({"replay"}),
                 "unknown gaze_trace command 'replay'");
    EXPECT_DEATH(parseGazeTraceArgs({"record", "--bogus=1"}),
                 "unknown record option");
    EXPECT_DEATH(parseGazeTraceArgs({"record", "--out-dir="}),
                 "--out-dir needs a directory");
    EXPECT_DEATH(parseGazeTraceArgs({"record", "--workloads=nope"}),
                 "unknown workload 'nope'");
    EXPECT_DEATH(parseGazeTraceArgs({"info"}),
                 "needs at least one .gzt file");
    EXPECT_DEATH(parseGazeTraceArgs({"validate", "--bogus"}),
                 "unknown validate option");
    // Single-dash typos are flags, not file names.
    EXPECT_DEATH(parseGazeTraceArgs({"info", "-h"}),
                 "unknown info option '-h'");
}

// ---- gaze_campaign --------------------------------------------------

TEST(GazeCampaignCli, RunFlagsParse)
{
    GazeCampaignOptions opt = parseGazeCampaignArgs(
        {"run", "--spec=camp.json", "--cache-dir=/tmp/cc",
         "--shard=2/8", "--threads=4", "--out=r.json", "--csv=r.csv",
         "--compare=old.json", "--quiet"});
    EXPECT_EQ(opt.command, GazeCampaignOptions::Command::Run);
    EXPECT_EQ(opt.specPath, "camp.json");
    EXPECT_EQ(opt.cacheDir, "/tmp/cc");
    EXPECT_EQ(opt.shardIndex, 2u);
    EXPECT_EQ(opt.shardCount, 8u);
    EXPECT_EQ(opt.threads, 4u);
    EXPECT_EQ(opt.outPath, "r.json");
    EXPECT_EQ(opt.csvPath, "r.csv");
    EXPECT_EQ(opt.comparePath, "old.json");
    EXPECT_TRUE(opt.quiet);
}

TEST(GazeCampaignCli, DefaultsAndOtherCommands)
{
    GazeCampaignOptions report =
        parseGazeCampaignArgs({"report", "--spec=s.json"});
    EXPECT_EQ(report.command, GazeCampaignOptions::Command::Report);
    EXPECT_EQ(report.cacheDir, "campaign_cache");
    EXPECT_EQ(report.shardCount, 1u);
    EXPECT_FALSE(report.quiet);

    GazeCampaignOptions status =
        parseGazeCampaignArgs({"status", "--spec=s.json"});
    EXPECT_EQ(status.command, GazeCampaignOptions::Command::Status);

    EXPECT_EQ(parseGazeCampaignArgs({}).command,
              GazeCampaignOptions::Command::Help);
    EXPECT_EQ(parseGazeCampaignArgs({"--help"}).command,
              GazeCampaignOptions::Command::Help);
    EXPECT_EQ(parseGazeCampaignArgs({"run", "--help"}).command,
              GazeCampaignOptions::Command::Help);
}

TEST(GazeCampaignCli, DescribeNeedsNoSpec)
{
    GazeCampaignOptions text = parseGazeCampaignArgs({"describe"});
    EXPECT_EQ(text.command, GazeCampaignOptions::Command::Describe);
    EXPECT_FALSE(text.jsonOutput);

    GazeCampaignOptions json =
        parseGazeCampaignArgs({"describe", "--json"});
    EXPECT_EQ(json.command, GazeCampaignOptions::Command::Describe);
    EXPECT_TRUE(json.jsonOutput);

    EXPECT_EQ(parseGazeCampaignArgs({"describe", "--help"}).command,
              GazeCampaignOptions::Command::Help);
}

TEST(GazeCampaignCliDeath, BadFlags)
{
    EXPECT_DEATH(parseGazeCampaignArgs({"describe", "--spec=s.json"}),
                 "unknown describe option");
    EXPECT_DEATH(parseGazeCampaignArgs({"launch"}),
                 "unknown gaze_campaign command 'launch'");
    EXPECT_DEATH(parseGazeCampaignArgs({"run"}),
                 "needs --spec=FILE");
    EXPECT_DEATH(parseGazeCampaignArgs({"run", "--spec="}),
                 "--spec needs a file path");
    EXPECT_DEATH(
        parseGazeCampaignArgs({"run", "--spec=s", "--shard=3"}),
        "--shard must look like I/N");
    EXPECT_DEATH(
        parseGazeCampaignArgs({"run", "--spec=s", "--shard=4/4"}),
        "out of range");
    EXPECT_DEATH(
        parseGazeCampaignArgs({"run", "--spec=s", "--shard=a/b"}),
        "bad numeric value");
    EXPECT_DEATH(
        parseGazeCampaignArgs({"report", "--spec=s", "--shard=0/2"}),
        "--shard only applies");
    EXPECT_DEATH(
        parseGazeCampaignArgs({"run", "--spec=s", "--frobnicate"}),
        "unknown option");
}

} // namespace
} // namespace gaze
