#include "prefetchers/pmp.hh"

#include "prefetchers/registry.hh"

namespace gaze
{

PmpPrefetcher::PmpPrefetcher(const PmpParams &params)
    : SpatialPatternPrefetcher(params.base), cfg(params),
      opt(params.optEntries), ppt(1, params.pptEntries)
{
    for (auto &cv : opt)
        cv.counter.assign(regionBlocks(), 0);
}

void
PmpPrefetcher::mergeInto(CounterVector &cv, const RegionInfo &info)
{
    if (cv.counter.empty())
        cv.counter.assign(regionBlocks(), 0);

    uint32_t n = regionBlocks();
    if (cv.merges >= cfg.maxConf) {
        // Exponential aging approximates "the 32 most recent
        // patterns": halve everything and keep merging.
        for (auto &c : cv.counter)
            c /= 2;
        cv.merges /= 2;
    }
    for (size_t b = info.footprint.findFirst(); b < info.footprint.size();
         b = info.footprint.findNext(b + 1)) {
        // Anchor at the trigger offset so footprints from different
        // region positions merge positionally.
        uint32_t anchored = (uint32_t(b) + n - info.trigger) % n;
        if (cv.counter[anchored] < cfg.maxConf)
            ++cv.counter[anchored];
    }
    ++cv.merges;
}

void
PmpPrefetcher::predictOnTrigger(const RegionInfo &info)
{
    uint32_t n = regionBlocks();
    const CounterVector &ov = opt[info.trigger % cfg.optEntries];
    uint64_t pc_key = mix64(info.triggerPc);
    const CounterVector *pv = ppt.find(0, pc_key);

    // Require some merge history before trusting the counters; a
    // freshly-seen offset says nothing yet.
    uint32_t history = ov.merges + (pv ? pv->merges : 0);
    if (history < 4)
        return;

    PfPattern pat(n, PfLevel::None);
    bool any = false;
    for (uint32_t a = 0; a < n; ++a) {
        // Combined vote over both tables. Confidence is against
        // MaxConf (the paper's "L1/L2 Thresh 0.5/0.15 of MaxConf 32"),
        // so conflict-diluted counters genuinely stay below threshold
        // — PMP's characteristic failure on complex patterns.
        double conf = 0.0;
        double weight = 0.0;
        if (ov.merges > 0) {
            double denom = std::max(cfg.maxConf / 2,
                                    std::min(ov.merges, cfg.maxConf));
            conf += double(ov.counter[a]) / denom;
            weight += 1.0;
        }
        if (pv && pv->merges > 0) {
            double denom = std::max(cfg.maxConf / 2,
                                    std::min(pv->merges, cfg.maxConf));
            conf += double(pv->counter[a]) / denom;
            weight += 1.0;
        }
        conf /= weight;
        uint32_t blk = (a + info.trigger) % n;
        if (conf >= cfg.l1Threshold) {
            pat[blk] = PfLevel::L1;
            any = true;
        } else if (conf >= cfg.l2Threshold) {
            pat[blk] = PfLevel::L2;
            any = true;
        }
    }
    if (any)
        installPattern(info, std::move(pat));
}

void
PmpPrefetcher::learnOnEnd(const RegionInfo &info)
{
    mergeInto(opt[info.trigger % cfg.optEntries], info);

    uint64_t pc_key = mix64(info.triggerPc);
    CounterVector *pv = ppt.find(0, pc_key);
    if (!pv) {
        CounterVector fresh;
        fresh.counter.assign(regionBlocks(), 0);
        ppt.insert(0, pc_key, std::move(fresh));
        pv = ppt.find(0, pc_key);
    }
    mergeInto(*pv, info);
}

uint64_t
PmpPrefetcher::storageBits() const
{
    // OPT entry: 64 counters x 6b ("320b counter vector" class);
    // PPT: tag (12b) + the same vector; plus FT/AT/PB as Table IV's
    // 5.0KB budget describes.
    uint64_t counter_bits = uint64_t(regionBlocks()) * 6;
    uint64_t opt_bits = uint64_t(cfg.optEntries) * counter_bits;
    uint64_t ppt_bits = uint64_t(cfg.pptEntries) * (12 + counter_bits);
    uint64_t ft_bits = 64ULL * (36 + 3 + 12 + 6);
    uint64_t at_bits = 64ULL * (36 + 3 + 12 + regionBlocks());
    uint64_t pb_bits = uint64_t(baseParams().pbEntries)
                       * (36 + 3 + 2 * regionBlocks());
    return opt_bits + ppt_bits + ft_bits + at_bits + pb_bits;
}

PrefetcherDescriptor
pmpDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "pmp";
    d.doc = "PMP (MICRO'21): offset/PC pattern-merging with "
            "counter-vector confidence thresholds";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        return std::make_unique<PmpPrefetcher>();
    };
    return d;
}

} // namespace gaze
