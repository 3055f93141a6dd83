#include "prefetchers/dspatch.hh"

#include "sim/dram.hh"

#include "prefetchers/registry.hh"

namespace gaze
{

DspatchPrefetcher::DspatchPrefetcher(const DspatchParams &params)
    : SpatialPatternPrefetcher(params.base), cfg(params),
      spt(params.sptSets, params.sptWays)
{
}

Bitset
DspatchPrefetcher::rotateLeft(const Bitset &fp, uint32_t by) const
{
    uint32_t n = regionBlocks();
    Bitset out(n);
    for (size_t b = fp.findFirst(); b < fp.size(); b = fp.findNext(b + 1))
        out.set((b + n - (by % n)) % n);
    return out;
}

double
DspatchPrefetcher::busUtilization() const
{
    return context.dram ? context.dram->recentUtilization() : 0.0;
}

void
DspatchPrefetcher::predictOnTrigger(const RegionInfo &info)
{
    uint64_t key = mix64(info.triggerPc);
    Entry *e = spt.find(key & (spt.sets() - 1), key);
    if (!e || e->merges < 2)
        return; // one observation is not a pattern yet

    bool prefer_acc = busUtilization() >= cfg.bwThreshold;
    (prefer_acc ? accUsed : covUsed)++;

    uint32_t n = regionBlocks();
    PfPattern pat(n, PfLevel::None);
    if (prefer_acc) {
        // Accuracy-biased: only blocks every generation touched.
        for (size_t b = e->accP.findFirst(); b < e->accP.size();
             b = e->accP.findNext(b + 1))
            pat[(b + info.trigger) % n] = PfLevel::L1;
    } else {
        // Coverage-biased: AND-confirmed blocks to L1, OR-only to L2.
        for (size_t b = e->covP.findFirst(); b < e->covP.size();
             b = e->covP.findNext(b + 1)) {
            uint32_t blk = (uint32_t(b) + info.trigger) % n;
            pat[blk] = e->accP.test(b) ? PfLevel::L1 : PfLevel::L2;
        }
    }
    installPattern(info, std::move(pat));
}

void
DspatchPrefetcher::learnOnEnd(const RegionInfo &info)
{
    uint64_t key = mix64(info.triggerPc);
    uint64_t set = key & (spt.sets() - 1);
    Bitset anchored = rotateLeft(info.footprint, info.trigger);

    Entry *e = spt.find(set, key);
    if (!e) {
        Entry fresh;
        fresh.covP = anchored;
        fresh.accP = anchored;
        fresh.merges = 1;
        spt.insert(set, key, std::move(fresh));
        return;
    }
    if (++e->merges >= cfg.covResetPeriod) {
        // Periodic re-anchor: CovP saturates towards all-ones under
        // OR-merging; resetting it to the latest footprint keeps the
        // coverage pattern current (DSPatch's pattern aging).
        e->covP = anchored;
        e->accP = anchored;
        e->merges = 1;
        return;
    }
    e->covP |= anchored;
    e->accP &= anchored;
}

uint64_t
DspatchPrefetcher::storageBits() const
{
    // SPT entry: tag (12b) + LRU (2b) + two patterns + merge ctr (5b).
    uint64_t spt_bits = uint64_t(cfg.sptSets) * cfg.sptWays
                        * (12 + 2 + 2 * regionBlocks() + 5);
    uint64_t page_buffer = 64ULL * (36 + 3 + 12 + regionBlocks());
    uint64_t pb_bits = uint64_t(baseParams().pbEntries)
                       * (36 + 3 + 2 * regionBlocks());
    return spt_bits + page_buffer + pb_bits;
}

PrefetcherDescriptor
dspatchDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "dspatch";
    d.doc = "DSPatch (MICRO'19): dual coverage/accuracy bit-pattern "
            "selection steered by DRAM bandwidth headroom";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        return std::make_unique<DspatchPrefetcher>();
    };
    return d;
}

} // namespace gaze
