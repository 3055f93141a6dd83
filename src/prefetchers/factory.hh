/**
 * @file
 * String-spec prefetcher factory used by the harness, benches and
 * examples. Specs have the form "name[:option[=value]]*" ("none" or
 * the empty string means no prefetcher).
 *
 * The grammar is not listed here on purpose: every scheme declares
 * its options — type, range/enum values, default, doc line — in a
 * registry descriptor next to its implementation
 * (prefetchers/registry.hh), and the authoritative, always-current
 * table is generated from those descriptors:
 *
 *   gaze_campaign describe               # human-readable
 *   gaze_campaign describe --json        # machine-readable
 *
 * Construction validates against the schema (unknown scheme/option,
 * malformed or out-of-range value: fatal) and canonicalizes the
 * spelling, so "gaze:region=2048:n=1" and "gaze:n=1:region=2048"
 * name — and cache as — the same experiment.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/prefetcher.hh"

namespace gaze
{

/**
 * Build a prefetcher from @p spec; returns nullptr for "none"/"".
 * Unknown names, unknown options or malformed values are fatal
 * (configuration error), with resolvePrefetcherSpec's diagnostic.
 */
std::unique_ptr<Prefetcher> makePrefetcher(const std::string &spec);

/**
 * Canonical names of every registered scheme, sorted — derived from
 * the registry, never a hand-maintained list.
 */
std::vector<std::string> knownPrefetcherSpecs();

} // namespace gaze
