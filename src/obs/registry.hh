/**
 * @file
 * Deterministic hierarchical counter registry. Subsystems keep
 * incrementing their own stat fields directly on the hot path (no
 * indirection, no perturbation); the registry merely *binds* names to
 * those fields after construction, so readers — the interval sampler,
 * --obs-timeline export — can snapshot every counter by name.
 *
 * Names are hierarchical dotted paths, `<component>.<counter>`:
 * `core0.instructions`, `l1d0.loadMiss`, `llc.pfFilled`,
 * `dram.busBusyCycles`, `engine.cycle`. Export order is always
 * name-sorted, so two runs (or two engines) produce byte-identical
 * documents for identical counter values.
 *
 * The obs subsystem (prefetch lifecycle attribution, this registry
 * with the interval sampler, and the Chrome-trace exporter) is
 * observation only, never perturbation: all architectural metrics
 * are bitwise identical whether obs outputs are requested or not,
 * across every engine and thread count (test_engine_diff asserts
 * this). Its hooks in the simulator therefore only read simulator
 * state or bump obs-private counters — never schedule work, touch
 * queues, or force wake-ups.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gaze
{

class JsonWriter;

namespace obs
{

/** Name -> counter bindings with deterministic, name-sorted readout. */
class Registry
{
  public:
    /** Bind @p name to a live counter field (not owned; must outlive). */
    void bindCounter(const std::string &name, const uint64_t *counter);

    /**
     * Bind @p name to a computed gauge (e.g. a queue occupancy).
     * Gauges must be pure reads of simulator state.
     */
    void bindGauge(const std::string &name, std::function<uint64_t()> fn);

    /**
     * Freeze the registry: sort by name, fatal on duplicates. Binding
     * after seal(), or reading before it, is fatal.
     */
    void seal();

    bool sealed() const { return isSealed; }
    size_t size() const { return entries.size(); }

    /** i-th name in sorted order (valid after seal()). */
    const std::string &nameAt(size_t i) const;

    /** Current value of the i-th counter/gauge (valid after seal()). */
    uint64_t valueAt(size_t i) const;

    /** Current values of all entries, in name order. */
    std::vector<uint64_t> snapshot() const;

    /** {"name": value, ...} object in name order. */
    void exportJson(JsonWriter &j) const;

  private:
    struct Entry
    {
        std::string name;
        const uint64_t *counter = nullptr;  ///< null for gauges
        std::function<uint64_t()> gauge;
    };

    std::vector<Entry> entries;
    bool isSealed = false;
};

} // namespace obs
} // namespace gaze
