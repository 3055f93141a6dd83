/**
 * @file
 * SPP (Signature Path Prefetcher, MICRO'16) with PPF (Perceptron-based
 * Prefetch Filtering, ISCA'19).
 *
 * SPP: each page's recent delta history is compressed into a
 * signature; the Pattern Table maps signatures to candidate deltas
 * with confidence counters. Prediction walks the signature path
 * lookahead-style, multiplying per-step confidence, until the path
 * confidence drops below threshold.
 *
 * PPF: every SPP proposal is scored by a perceptron over simple
 * features; proposals below the threshold are rejected. Accepted
 * prefetches are remembered so usefulness feedback (demand hit before
 * eviction vs. evicted untouched) can train the weights. The feature
 * set is reduced relative to the 39.3KB original: six hashed features
 * (PC, target offset, signature, delta, lookahead depth, path
 * confidence), each a table of 6-bit weights (128 entries by
 * default). The baseline keeps PPF's filtering mechanism, not its
 * storage budget; storageBits() reports this model's own size.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/ring_buffer.hh"
#include "sim/mshr_table.hh"
#include "sim/prefetcher.hh"

namespace gaze
{

struct SppParams
{
    uint32_t stEntries = 256;  ///< signature table (pages tracked)
    uint32_t ptSets = 512;     ///< pattern table sets (per signature)
    uint32_t ptWays = 4;       ///< delta candidates per signature
    uint32_t cMax = 15;        ///< 4-bit confidence counters

    double fillThreshold = 0.90;  ///< path conf for L1 fills
    double pfThreshold = 0.25;    ///< minimum path conf to prefetch
    uint32_t maxDepth = 8;

    bool enablePpf = true;
    int32_t ppfThreshold = 0;       ///< accept when sum >= threshold
    int32_t ppfWeightMax = 31;      ///< 6-bit signed weights
    uint32_t ppfTableSize = 128;    ///< entries per feature table
    uint32_t ppfHistory = 1024;     ///< in-flight prefetch records
};

/** SPP-PPF attached at L1D (as the paper evaluates it). */
class SppPpfPrefetcher : public Prefetcher
{
  public:
    explicit SppPpfPrefetcher(const SppParams &params = {});

    std::string name() const override { return "spp_ppf"; }
    void onAccess(const DemandAccess &access) override;
    void onEvict(Addr paddr, Addr vaddr) override;
    uint64_t storageBits() const override;

    uint64_t proposals() const { return proposed; }
    uint64_t rejections() const { return rejected; }

  private:
    static constexpr uint32_t numFeatures = 6;

    struct StEntry
    {
        uint16_t signature = 0;
        uint16_t lastOffset = 0;
        bool valid = false;
    };

    struct PtDelta
    {
        int16_t delta = 0;
        uint8_t conf = 0;
    };

    struct PtEntry
    {
        std::array<PtDelta, 4> ways{};
        uint8_t total = 0;
    };

    using FeatureVec = std::array<uint16_t, numFeatures>;

    static uint16_t
    nextSignature(uint16_t sig, int16_t delta)
    {
        return static_cast<uint16_t>(((sig << 3)
                                      ^ uint16_t(delta & 0x7f)) & 0xfff);
    }

    void trainPt(uint16_t sig, int16_t delta);

    /** Perceptron score of a proposal; fills @p feats. */
    int32_t score(PC pc, Addr target_vaddr, uint16_t sig, int16_t delta,
                  uint32_t depth, double conf, FeatureVec &feats) const;

    void trainPerceptron(const FeatureVec &feats, bool useful);

    void recordPending(Addr block, const FeatureVec &feats);

    SppParams cfg;
    LruTable<StEntry> st;
    std::vector<PtEntry> pt;

    /** Perceptron weight tables, one per feature. */
    std::vector<std::vector<int32_t>> weights;

    /**
     * In-flight prefetches awaiting usefulness feedback: block ->
     * feature vector, bounded FIFO (a flat open-addressed table for
     * O(1) allocation-free lookup on the access path). The FIFO also
     * holds addresses whose map entry was consumed by feedback; those
     * stale slots still count toward the history bound, exactly as
     * the unordered_map version behaved.
     */
    MshrTable<FeatureVec> pending;
    RingBuffer<Addr> pendingFifo;

    uint64_t proposed = 0;
    uint64_t rejected = 0;
};

} // namespace gaze
