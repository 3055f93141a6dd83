/**
 * @file
 * gaze_sim: the suite-runner CLI, a cache-less front end of the
 * campaign engine. Flag parsing lives in driver/cli so its error paths
 * are unit-testable, the run and its rendering in driver/driver; this
 * file only sequences parse -> expand -> run -> report.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "driver/driver.hh"
#include "harness/export.hh"
#include "prefetchers/factory.hh"
#include "workloads/suites.hh"

namespace
{

void
printLists()
{
    std::printf("prefetchers:\n");
    for (const auto &p : gaze::knownPrefetcherSpecs())
        std::printf("  %s\n", p.c_str());
    std::printf("\nworkloads (name / suite):\n");
    for (const auto &w : gaze::allWorkloads())
        std::printf("  %-20s %s\n", w.name.c_str(), w.suite.c_str());
    std::printf("\nmain suites:");
    for (const auto &s : gaze::mainSuites())
        std::printf(" %s", s.c_str());
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gaze;

    GazeSimOptions opt =
        parseGazeSimArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (opt.showHelp) {
        std::fputs(gazeSimUsage(), stdout);
        return 0;
    }
    if (opt.showList) {
        printLists();
        return 0;
    }

    Campaign campaign = expandCampaign(opt.spec);
    const CampaignSpec &spec = campaign.spec;
    std::printf("gaze_sim: %zu prefetcher(s) x %zu workload(s), "
                "%u core(s)/cell, level %s%s%s\n",
                spec.prefetchers.size(), campaign.workloads.size(),
                spec.coreCounts.front(), spec.levels.front().c_str(),
                spec.traceDir.empty() ? "" : ", traces from ",
                spec.traceDir.c_str());

    GazeSimRun run = runGazeSim(std::move(campaign), opt);

    std::printf("\n%s\n", gazeSimSuiteTable(run).c_str());
    std::string schemeTable = gazeSimSchemeTable(run);
    if (!schemeTable.empty())
        std::printf("per-scheme attribution:\n%s\n",
                    schemeTable.c_str());
    if (opt.engineStats)
        std::printf("\n%s\n", gazeSimEngineTable(run).c_str());
    std::printf("total: %zu cells in %.1fs on %u thread(s), "
                "%.2f Minstr/s\n",
                run.campaign.cells.size(), run.stats.seconds,
                run.stats.threadsUsed, run.minstrPerSec());
    if (!opt.obsTimelinePath.empty())
        std::printf("obs timeline: %s\n", opt.obsTimelinePath.c_str());
    if (!opt.obsTracePath.empty())
        std::printf("obs trace: %s\n", opt.obsTracePath.c_str());

    JsonExport doc(opt.spec.name, gazeSimJson(run));
    std::string path =
        opt.outPath.empty() ? doc.write() : doc.writeTo(opt.outPath);
    std::printf("results: %s\n", path.c_str());
    return 0;
}
