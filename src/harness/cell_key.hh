/**
 * @file
 * Canonical cell identity for content-addressed result caching. One
 * "cell" is everything that determines a simulation's outcome: the
 * full SystemConfig, the resolved phase lengths, the prefetcher spec,
 * and the identity of every workload in the mix (generator + scale,
 * or recorded-trace checksum). Two processes that canonicalize the
 * same experiment get the same text and therefore the same FNV-1a
 * hash, which is what the campaign cache files are named after; the
 * text itself keys Runner's baseline memo.
 *
 * The schema version is baked into the text: bump it whenever the
 * simulator's observable behavior changes (new stat, different
 * timing), and every previously cached cell silently misses instead
 * of serving stale results.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "workloads/suites.hh"

namespace gaze
{

/**
 * Bump on any change that invalidates previously cached results.
 *
 * v2: prefetcher specs inside the cell text are canonicalized by the
 * registry (aliases resolved, options sorted, defaults elided), so a
 * v1 record keyed by a raw spelling must read as a miss even when its
 * spelling happened to be canonical.
 *
 * v3: cell records gained the engine-speed slice of RunSummary
 * (events_dispatched, cycles_executed, cycles_skipped,
 * minstr_per_sec); v2 records lack the fields and must recompute.
 *
 * v4: cell records gained the late-miss split (pf_late_load,
 * pf_late_rfo) and the per-scheme lifecycle attribution ("schemes"
 * array); v3 records lack the fields and must recompute. Note that
 * obs *settings* (ObsConfig: sampler interval, trace sink) are
 * deliberately NOT part of the canonical text — obs never perturbs
 * simulated state, so a cell computed with tracing on is the same
 * cell computed with it off.
 *
 * v5: cell records gained instructions_retired and engine_flips, the
 * two whole-run counters gaze_sim's engine block sums from records,
 * and store ipc at round-trip precision, so a report computed from
 * cached records equals one computed from the runs themselves; v4
 * records lack the counters and must recompute.
 *
 * v6: cell records drop engine_flips (the auto engine no longer
 * switches modes), and events_dispatched counts ticks whose wake gate
 * was open, the same on both engines; v5 records carry the old counts
 * and must recompute.
 */
constexpr uint32_t kCellSchemaVersion = 6;

/**
 * The canonical, human-auditable identity text of one cell. Covers
 * every SystemConfig field, the effective (scale-resolved) warmup and
 * measured instruction counts, the prefetcher spec, and each mix
 * member's workloadIdentity(). Deterministic across processes.
 */
std::string canonicalCellText(const RunConfig &cfg, const PfSpec &pf,
                              const std::vector<WorkloadDef> &mix);

/** FNV-1a 64 of the canonical text (the cache address of the cell). */
uint64_t cellHash(const std::string &canonical_text);

/** The cache file stem: 16 lowercase hex digits. */
std::string cellHashHex(uint64_t hash);

} // namespace gaze
