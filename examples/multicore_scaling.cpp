/**
 * @file
 * Multi-core scaling example: bandwidth contention and prefetcher
 * aggressiveness (the paper's Fig. 14 mechanism in miniature).
 *
 * Runs a homogeneous leslie3d-like mix on 1/2/4/8 cores (DRAM
 * channels scale with cores per Table II) and reports per-scheme
 * speedups plus the DRAM bus utilization behind them. Accurate
 * prefetchers (Gaze) degrade gracefully as contention grows;
 * aggressive inaccurate ones (PMP class) fall off. Phase lengths
 * follow GAZE_SIM_SCALE.
 */

#include <algorithm>
#include <cstdio>

#include "harness/runner.hh"
#include "harness/table.hh"
#include "workloads/suites.hh"

int
main()
{
    using namespace gaze;

    RunConfig cfg;

    const char *schemes[] = {"vberti", "pmp", "gaze"};

    std::printf("multicore scaling: homogeneous leslie3d mix\n\n");
    TextTable table({"cores", "vberti", "pmp", "gaze",
                     "bus util (gaze)"});
    for (uint32_t cores : {1u, 2u, 4u, 8u}) {
        std::vector<std::string> row = {std::to_string(cores)};
        double util = 0.0;
        for (const char *pf : schemes) {
            Runner runner(cfg);
            std::vector<WorkloadDef> mix(cores,
                                         findWorkload("leslie3d"));
            RunResult base = runner.baselineMix(mix);
            RunResult r = runner.runMix(mix, PfSpec{pf});
            PrefetchMetrics m = computeMetrics(base, r);
            row.push_back(TextTable::fmt(m.speedup));
            if (std::string(pf) == "gaze") {
                // The DRAM counts busy cycles until the slowest core
                // finishes its measured phase.
                double cycles = 0.0;
                for (const auto &c : r.cores)
                    cycles = std::max(cycles, double(c.cycles));
                uint32_t channels = DramParams::forCores(cores).channels;
                util = cycles > 0 ? double(r.dram.busBusyCycles)
                                        / (cycles * channels)
                                  : 0.0;
            }
        }
        row.push_back(TextTable::pct(util));
        table.addRow(row);
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("expected: per-core gains shrink as cores contend for "
                "DRAM; Gaze declines most gracefully (accuracy keeps "
                "its traffic useful).\n");
    return 0;
}
