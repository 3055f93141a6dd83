/**
 * @file
 * Analytic storage accounting for Table I (Gaze's breakdown) and
 * Table IV (configuration and storage of every evaluated scheme).
 * Bits are computed from the paper's field lists; the tables also
 * carry the paper's published byte figures for comparison.
 * gaze_campaign describe prints both after the registry.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gaze
{

/** One storage row: structure name, description, modeled bits. */
struct StorageRow
{
    std::string structure;
    std::string description;
    uint64_t bits = 0;

    double kib() const { return double(bits) / 8.0 / 1024.0; }
};

/** Table I: Gaze's per-structure storage breakdown. */
std::vector<StorageRow> gazeStorageBreakdown();

/** Per-scheme total storage (Table IV), modeled from our instances. */
struct SchemeStorage
{
    std::string scheme;
    std::string configuration;
    uint64_t bits = 0;
    double paperKib = 0.0; ///< the figure Table IV reports

    double kib() const { return double(bits) / 8.0 / 1024.0; }
};

std::vector<SchemeStorage> evaluatedSchemeStorage();

/**
 * Table I (Gaze's breakdown, its total and the §III-E pattern-line
 * width proxy) and Table IV (every evaluated scheme, modeled and
 * published) as aligned text: the storage view of gaze_campaign
 * describe.
 */
std::string renderStorageTables();

} // namespace gaze
