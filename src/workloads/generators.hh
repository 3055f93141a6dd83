/**
 * @file
 * Synthetic trace generators. The paper's ChampSim traces are large
 * external downloads this repository does not ship, so each generator
 * reproduces one memory-access *archetype* from the paper's workload
 * suites instead (the benchmarks each stands in for are named below):
 *
 *  - streaming: long sequential walks over large arrays (bwaves, lbm,
 *    leslie3d; Ligra frontiers) — regions start at blocks 0,1 and run
 *    fully dense, the §III-C spatial-streaming case;
 *  - strided: fixed multi-block strides (milc, facesim) — sparse but
 *    perfectly regular footprints;
 *  - region templates: recurring spatial footprints with consistent
 *    internal temporal order, with a controllable number of templates
 *    sharing the same trigger offset (the Fig. 2 conflict) and
 *    controllable PC sharing — this is the knob that separates
 *    offset-, PC-, and address-based characterization from Gaze's;
 *  - pointer chase: serialized dependent loads over a random chain
 *    (mcf, canneal, omnetpp);
 *  - server: front-end-stall-dominated with light data misses (the
 *    QMM server class where data prefetching cannot help);
 *  - mixes of the above via phase concatenation.
 *
 * All generators are deterministic in their seed.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sim/trace.hh"

namespace gaze
{

/** Convenience builder collecting TraceRecords. */
class TraceBuilder
{
  public:
    TraceBuilder() = default;

    /**
     * Reserve room for @p records plus a generator's last-step
     * overshoot, so the buffer is allocated once at its final size.
     * The trace store keeps it resident across jobs, and a growth
     * copy per doubling would leave freed blocks behind in the
     * allocator of every worker thread that generated a trace.
     */
    explicit TraceBuilder(uint64_t records)
    {
        recs.reserve(records + kOvershootSlack);
    }

    void
    nonMem(uint32_t count, PC pc = 0x1000)
    {
        for (uint32_t i = 0; i < count; ++i)
            recs.push_back({pc + 4 * i, 0, TraceOp::NonMem, 0});
    }

    void load(PC pc, Addr vaddr)
    {
        recs.push_back({pc, vaddr, TraceOp::Load, 0});
    }

    void dependentLoad(PC pc, Addr vaddr)
    {
        recs.push_back({pc, vaddr, TraceOp::DependentLoad, 0});
    }

    void store(PC pc, Addr vaddr)
    {
        recs.push_back({pc, vaddr, TraceOp::Store, 0});
    }

    void stall(uint16_t cycles)
    {
        recs.push_back({0, 0, TraceOp::Stall, cycles});
    }

    size_t size() const { return recs.size(); }

    VectorTrace build() { return VectorTrace(std::move(recs)); }

    /** Append all records of @p other (phase concatenation). */
    void
    append(TraceBuilder &&other)
    {
        recs.insert(recs.end(), other.recs.begin(), other.recs.end());
    }

  private:
    /** Records a generator's last step may emit past its target. */
    static constexpr uint64_t kOvershootSlack = 1024;

    std::vector<TraceRecord> recs;
};

/** Parameters for streaming traces. */
struct StreamParams
{
    uint64_t seed = 1;
    uint64_t records = 1'000'000;

    /** Concurrent sequential streams (distinct arrays). */
    uint32_t streams = 2;

    /** Array length in 4KB pages per stream (4MB > LLC per stream). */
    uint64_t pagesPerStream = 1024;

    /** Non-memory instructions between memory ops. */
    uint32_t gapNonMem = 3;

    /** Fraction of memory ops that are stores (lbm-like write-heavy). */
    double storeFraction = 0.0;

    /** Stride in blocks (1 = fully dense streaming). */
    uint32_t strideBlocks = 1;

    /**
     * Element size in bytes: real code walks arrays element by
     * element, so each 64B block is touched blockSize/elemBytes times
     * (one miss, then hits). This is what makes streaming latency-
     * bound rather than MSHR-saturated.
     */
    uint32_t elemBytes = 8;
};

/** Sequential/strided streaming over large arrays. */
VectorTrace genStream(const StreamParams &p);

/** Parameters for the recurring-footprint template generator. */
struct TemplateParams
{
    uint64_t seed = 1;
    uint64_t records = 1'000'000;

    /** Number of distinct footprint templates. */
    uint32_t numTemplates = 8;

    /**
     * Templates per trigger offset: 1 means the trigger offset alone
     * identifies the template (offset-based schemes work); k > 1
     * recreates the Fig. 2 conflict where only the second access
     * disambiguates.
     */
    uint32_t conflictDegree = 1;

    /** Blocks per template footprint. */
    uint32_t blocksPerTemplate = 12;

    /**
     * When true every template is touched by the same PC set (PC-based
     * characterization conflicts); when false each template has its
     * own PC (PC-based schemes work).
     */
    bool sharedPc = true;

    /**
     * Distinct trigger-PC variants per template (call sites). Each
     * variant maps to exactly one template, so PC-based schemes stay
     * *accurate* — but numTemplates * pcVariants PCs must fit in
     * their tables. Cloud-like code footprints set this high to
     * overflow small PC-indexed tables (DSPatch's 256-entry SPT)
     * while 16k-entry PHTs (SMS/Bingo) still cope.
     */
    uint32_t pcVariants = 1;

    /** Distinct pages cycled through (working-set pressure). */
    uint64_t numPages = 8192;

    /**
     * Fraction of region activations on previously-visited pages that
     * keep their page->template binding (makes PC+Address exact
     * matches possible); the rest are fresh pages.
     */
    double revisitFraction = 0.6;

    /**
     * Probability that two adjacent accesses within a footprint swap
     * order (out-of-order scheduling noise).
     */
    double jitter = 0.0;

    uint32_t gapNonMem = 4;

    /** Consecutive element accesses per touched block (reuse). */
    uint32_t accessesPerBlock = 3;

    /**
     * Region generations open at once. Real programs interleave work
     * on many pages, so consecutive accesses to one region are spread
     * out in time — without this no prefetch could ever be timely.
     */
    uint32_t concurrentRegions = 12;
};

/** Recurring region footprints with internal temporal order. */
VectorTrace genTemplates(const TemplateParams &p);

/** Parameters for pointer chasing. */
struct ChaseParams
{
    uint64_t seed = 1;
    uint64_t records = 1'000'000;

    /** Nodes in the chain (footprint = nodes * 64B). */
    uint64_t nodes = 1 << 18;

    uint32_t gapNonMem = 4;

    /** Fraction of loads that are independent noise (array lookups). */
    double noiseFraction = 0.2;
};

/** Serialized random pointer chasing (mcf/canneal-like). */
VectorTrace genPointerChase(const ChaseParams &p);

/** Parameters for server-class (front-end-bound) traces. */
struct ServerParams
{
    uint64_t seed = 1;
    uint64_t records = 1'000'000;

    /** Mean instructions between front-end stalls. */
    uint32_t stallPeriod = 120;
    uint16_t stallCycles = 18;

    /** Data accesses: sparse template regions with conflicts. */
    uint32_t gapNonMem = 9;
    uint64_t numPages = 4096;
};

/** QMM-server-like: instruction-bound, light data misses. */
VectorTrace genServer(const ServerParams &p);

/**
 * Interleave of dense streaming and sparse region starts from the same
 * code (the §III-C BFS hazard): sparse regions also begin at blocks
 * 0,1 but stay sparse, so naive dense-pattern replay over-prefetches.
 */
struct StreamHazardParams
{
    uint64_t seed = 1;
    uint64_t records = 1'000'000;

    /** Fraction of region activations that are truly dense streams. */
    double denseFraction = 0.5;

    /**
     * Fraction of *sparse* regions that begin at blocks 0,1 like a
     * stream (the actual §III-C hazard); the rest start at a random
     * offset and never look like streaming.
     */
    double sparseLookalike = 0.35;

    /** Blocks touched in a sparse (frontier-like) region. */
    uint32_t sparseBlocks = 4;

    uint64_t numPages = 8192;
    uint32_t gapNonMem = 5;

    /** Consecutive element accesses per touched block. */
    uint32_t accessesPerBlock = 3;

    /** Concurrently open regions (see TemplateParams). */
    uint32_t concurrentRegions = 6;
};

VectorTrace genStreamHazard(const StreamHazardParams &p);

} // namespace gaze
