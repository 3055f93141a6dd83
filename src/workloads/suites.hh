/**
 * @file
 * The workload suite registry: named synthetic traces standing in for
 * the paper's SPEC06 / SPEC17 / Ligra / PARSEC / CloudSuite / GAP /
 * QMM trace sets (see DESIGN.md for the substitution rationale). Each
 * entry knows how to (re)generate its trace deterministically.
 *
 * Trace lengths honor the GAZE_SIM_SCALE environment variable so the
 * benches can be scaled up or down without recompiling.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace gaze
{

/**
 * A named workload belonging to a suite. A workload resolves to a
 * TraceSource one of two ways: generated in memory by @p make (the
 * default), once per process through the shared trace store
 * (workloads/trace_store.hh), or replayed from a recorded .gzt file
 * when @p traceFile is set (gaze_sim --trace-dir, see
 * tracing/trace_io.hh). The store keys generated traces by
 * workloadIdentity(), so within one process a name must always
 * denote the same generator.
 */
struct WorkloadDef
{
    WorkloadDef() = default;

    WorkloadDef(std::string name_, std::string suite_,
                std::function<VectorTrace()> make_)
        : name(std::move(name_)), suite(std::move(suite_)),
          make(std::move(make_))
    {
    }

    std::string name;  ///< e.g. "fotonik3d_s"
    std::string suite; ///< "spec06" | "spec17" | "ligra" | "parsec"
                       ///< | "cloud" | "gap" | "qmm_server" | "qmm_client"
    std::function<VectorTrace()> make;

    /** When non-empty, open() replays this .gzt instead of make(). */
    std::string traceFile;

    /** A cursor over this workload's trace: the shared generated
        records, or a streaming reader of the .gzt file. */
    std::unique_ptr<TraceSource> open() const;
};

/** Global simulation scale from GAZE_SIM_SCALE (default 1.0). */
double simScale();

/** Baseline record count for one trace, after scaling. */
uint64_t scaledRecords(uint64_t base = 600'000);

/** Every registered workload. */
const std::vector<WorkloadDef> &allWorkloads();

/**
 * Resolve a workload axis, the one rule every front end shares:
 * explicit @p names override @p suites, no suites means mainSuites(),
 * and "qmm" names both QMM suites. Every suite is checked even when
 * @p names overrides it, so a typo'd axis is never silently dropped.
 * Returns false with "unknown workload 'x'" or "unknown suite 'y'" in
 * @p error.
 */
bool resolveWorkloads(const std::vector<std::string> &names,
                      const std::vector<std::string> &suites,
                      std::vector<WorkloadDef> *out, std::string *error);

/** Workloads of one suite (fatal, exit 1, if unknown). */
std::vector<WorkloadDef> suiteWorkloads(const std::string &suite);

/** Find a workload by exact name (fatal, exit 1, if missing). */
const WorkloadDef &findWorkload(const std::string &name);

/**
 * Rebind each workload to replay "<dir>/<name>.gzt". The files are
 * not opened here: spec validation probes them (parseCampaignSpec,
 * validateCampaignSpec), and workloadIdentity() reads each header.
 */
std::vector<WorkloadDef> withTraceDir(std::vector<WorkloadDef> workloads,
                                      const std::string &dir);

/**
 * Canonical identity string for result-cache keys. A generator
 * workload is its registry name plus the generation scale (the only
 * inputs its deterministic trace depends on); a file-backed workload
 * is the name plus the recorded trace's header key (version, record
 * count, payload checksum — see traceCacheKey), so two different
 * recordings of the same workload never share cached results. Fatal
 * on an unreadable trace file.
 */
std::string workloadIdentity(const WorkloadDef &w);

/** The five main-evaluation suites of Fig. 6-8. */
const std::vector<std::string> &mainSuites();

} // namespace gaze
