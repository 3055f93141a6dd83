/**
 * @file
 * Berti / vBerti: per-PC timely local-delta prefetching (MICRO'22).
 *
 * Berti learns, for each load PC, which block-granularity deltas have
 * historically been *timely*: when a demand fill completes with fetch
 * latency L, any earlier access by the same PC that happened at least
 * L cycles before the fill could have prefetched this block in time,
 * so the delta between the two addresses earns a timely hit. Deltas
 * whose hit ratio clears a high threshold are issued to L1D on every
 * access by that PC; medium-confidence deltas go to L2C.
 *
 * This is the enhanced vBerti the paper evaluates: it operates on
 * virtual addresses and may cross 4KB page boundaries, restricted to
 * eight virtual pages (four per direction) as §IV-A2 describes.
 *
 * Berti has no region-activation gating, so it re-issues prefetches
 * for blocks already resident in the L1D; those redundant requests
 * occupy PQ slots and are dropped on tag hit — the exact effect the
 * paper's §IV-B3 comparative study attributes its losses to.
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/lru_table.hh"
#include "common/ring_buffer.hh"
#include "sim/prefetcher.hh"

namespace gaze
{

struct BertiParams
{
    /** Per-PC delta table geometry (2.55KB budget in Table IV). */
    uint32_t tableSets = 16;
    uint32_t tableWays = 4;
    uint32_t deltasPerPc = 16;

    /** Recent-access history searched for timely candidates. */
    uint32_t historySize = 512;

    /**
     * Demand fills per confidence window before statuses are
     * re-evaluated (confidence = timely hits / fills, i.e. the share
     * of misses the delta would have covered in time).
     */
    uint32_t windowFills = 16;

    /** Timely predecessors credited per fill. */
    uint32_t creditsPerFill = 2;

    double l1Confidence = 0.75;
    double l2Confidence = 0.50;

    /** Cross-page reach in 4KB virtual pages, per direction. */
    uint32_t pageReach = 4;

    /** Deltas issued per trigger access (the most confident first). */
    uint32_t maxIssuePerAccess = 4;

    /**
     * §IV-B3's "Oracle vBerti": consult the L1D tag array before
     * issuing and drop prefetches whose block is already resident.
     * Real Berti cannot do this check; the paper uses the oracle to
     * quantify how much its redundant prefetches cost (bwaves_s went
     * 2.12 -> 2.65) and to show it is no panacea (GemsFDTD -4.2%).
     */
    bool oracleFilter = false;
};

/** vBerti: virtual-address timely local deltas. */
class BertiPrefetcher : public Prefetcher
{
  public:
    explicit BertiPrefetcher(const BertiParams &params = {});

    std::string
    name() const override
    {
        return cfg.oracleFilter ? "oracle_vberti" : "vberti";
    }

    void onAccess(const DemandAccess &access) override;
    void onFill(const FillEvent &fill) override;
    uint64_t storageBits() const override;

    /** Redundant prefetches suppressed by the oracle filter. */
    uint64_t oracleDropCount() const { return oracleDrops; }

  private:
    struct DeltaStat
    {
        int32_t delta = 0;
        uint16_t hits = 0;     ///< timely hits this window
        uint8_t status = 0;    ///< 0 none, 1 L2, 2 L1 (from last window)
    };

    struct PcEntry
    {
        std::array<DeltaStat, 16> deltas{};
        uint16_t windowFillCount = 0; ///< demand fills this window
    };

    struct HistoryRecord
    {
        PC pc = 0;
        Addr block = 0; ///< virtual block number
        Cycle cycle = 0;
    };

    PcEntry *findPc(PC pc, bool alloc);
    void creditDelta(PcEntry &e, int32_t delta);
    void closeWindow(PcEntry &e);

    BertiParams cfg;
    LruTable<PcEntry> table;
    RingBuffer<HistoryRecord> history;
    uint64_t oracleDrops = 0;
};

} // namespace gaze
