/**
 * @file
 * Shared helpers for the bench binaries: standard header printing,
 * the Fig. 14 prefetcher list, and a geomean-over-traces helper.
 * All benches honor GAZE_SIM_SCALE for trace/interval scaling.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/table.hh"
#include "workloads/suites.hh"

namespace gaze::bench
{

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *what)
{
    std::printf("==================================================="
                "=========\n");
    std::printf("%s — %s\n", experiment, what);
    std::printf("simulation scale: %.2fx (GAZE_SIM_SCALE), "
                "warm/sim per run: %llu/%llu instructions\n",
                simScale(),
                static_cast<unsigned long long>(RunConfig{}.effectiveWarmup()),
                static_cast<unsigned long long>(RunConfig{}.effectiveSim()));
    std::printf("==================================================="
                "=========\n\n");
}

/** The six multi-core prefetchers of Fig. 14. */
inline std::vector<std::string>
fig14Prefetchers()
{
    return {"spp_ppf", "vberti", "bingo", "dspatch", "pmp", "gaze"};
}

/** Geomean over per-trace speedups of @p pf on the named traces. */
inline double
speedupOver(Runner &runner, const std::vector<std::string> &names,
            const PfSpec &pf)
{
    std::vector<double> s;
    for (const auto &n : names)
        s.push_back(runner.evaluate(findWorkload(n), pf).speedup);
    return geomean(s);
}

} // namespace gaze::bench
