/**
 * @file
 * Configuration knobs for the Gaze prefetcher. Defaults reproduce the
 * paper's Table I configuration; the non-default settings exist to
 * reproduce specific figures (ablations and sensitivity sweeps), as
 * noted per field.
 */

#pragma once

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"

namespace gaze
{

/** All Gaze parameters (paper defaults). */
struct GazeConfig
{
    /** Spatial region size in bytes (4KB default; Figs. 17a and 18). */
    uint64_t regionSize = 4096;

    /** Filter Table: 8-way, 64 entries (Table I). */
    uint32_t ftSets = 8;
    uint32_t ftWays = 8;

    /** Accumulation Table: 8-way, 64 entries (Table I). */
    uint32_t atSets = 8;
    uint32_t atWays = 8;

    /**
     * Pattern History Table: 4-way, 256 entries, indexed by the
     * trigger offset (64 sets for 4KB regions), tagged by the second
     * offset (Table I; size swept in Fig. 17b).
     */
    uint32_t phtSets = 64;
    uint32_t phtWays = 4;

    /** Dense PC Table: fully associative, 8 entries (Table I). */
    uint32_t dpctEntries = 8;

    /** Prefetch Buffer geometry (Table I). */
    uint32_t pbEntries = 32;
    uint32_t pbWays = 8;
    uint32_t pbIssuePerCycle = 2;

    /**
     * Number of initial accesses whose spatial+temporal alignment is
     * required for a match (Fig. 4 sweeps 1..4; the paper picks 2).
     * 1 degenerates to trigger-offset-only characterization.
     */
    uint32_t numInitialAccesses = 2;

    /**
     * Streaming module (DPCT + DC + two-stage aggressiveness, §III-C).
     * Disabled => "Gaze-PHT" in Fig. 9 (dense footprints go through
     * the PHT like any other pattern).
     */
    bool enableStreamingModule = true;

    /**
     * Fig. 10's PHT4SS setting: streaming-case regions are learned
     * and predicted via the PHT instead of the streaming module.
     */
    bool streamingViaPht = false;

    /**
     * Fig. 10 isolation: operate only on streaming-case regions
     * (trigger==0 && second==1); normal regions are neither learned
     * nor predicted. Used by the PHT4SS / SM4SS comparison.
     */
    bool streamingRegionsOnly = false;

    /** Stage 1 moderate aggressiveness: blocks sent to L1D. */
    uint32_t streamHeadBlocks = 16;

    /** Stage 2 promotion: blocks promoted per confirmation... */
    uint32_t promoteBlocks = 4;

    /** ...skipping this many blocks already in flight (Fig. 3c). */
    uint32_t promoteSkip = 2;

    /** Blocks per region under this configuration. */
    uint32_t
    blocksPerRegion() const
    {
        return static_cast<uint32_t>(regionSize / blockSize);
    }

    /**
     * Die loudly on impossible geometry instead of mis-indexing: every
     * table derives its set index with a power-of-two mask, and the PB
     * partitions its entries evenly across ways. Called from the
     * GazePrefetcher constructor so sweeps (factory option strings,
     * sensitivity benches) cannot construct a silently-aliasing table.
     */
    void
    validate() const
    {
        GAZE_ASSERT(isPowerOfTwo(regionSize) && regionSize >= 2 * blockSize,
                    "regionSize must be a power of two >= two blocks, got ",
                    regionSize);
        GAZE_ASSERT(isPowerOfTwo(ftSets),
                    "ftSets must be a power of two, got ", ftSets);
        GAZE_ASSERT(isPowerOfTwo(atSets),
                    "atSets must be a power of two, got ", atSets);
        GAZE_ASSERT(isPowerOfTwo(phtSets),
                    "phtSets must be a power of two, got ", phtSets);
        GAZE_ASSERT(ftWays >= 1 && atWays >= 1 && phtWays >= 1,
                    "table ways must be >= 1");
        GAZE_ASSERT(dpctEntries >= 1, "DPCT needs at least one entry");
        GAZE_ASSERT(isValidSetSplit(pbEntries, pbWays),
                    "PB geometry must split into a power-of-two set count, "
                    "got ", pbEntries, " entries x ", pbWays, " ways");
        GAZE_ASSERT(pbIssuePerCycle >= 1, "PB must issue at least one/cycle");
        GAZE_ASSERT(numInitialAccesses >= 1 && numInitialAccesses <= 4,
                    "numInitialAccesses out of range: ", numInitialAccesses);
    }
};

} // namespace gaze
