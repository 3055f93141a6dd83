#include "prefetchers/bingo.hh"

#include <vector>

#include "prefetchers/registry.hh"

namespace gaze
{

BingoPrefetcher::BingoPrefetcher(const BingoParams &params)
    : SpatialPatternPrefetcher(params.base), cfg(params),
      pht(params.phtSets, params.phtWays)
{
}

uint64_t
BingoPrefetcher::shortKey(const RegionInfo &info) const
{
    // Short event: PC + Offset.
    return mix64(info.triggerPc) ^ (uint64_t(info.trigger) << 48);
}

uint64_t
BingoPrefetcher::longKey(const RegionInfo &info) const
{
    // Long event: PC + full trigger block address.
    return mix64(info.triggerPc * 0x9e3779b97f4a7c15ULL
                 + info.triggerAddr);
}

void
BingoPrefetcher::predictOnTrigger(const RegionInfo &info)
{
    uint64_t skey = shortKey(info);
    uint64_t lkey = longKey(info);
    uint64_t set = skey & (pht.sets() - 1);

    // Pass 1: exact long-event match wins outright (TAGE-style).
    Entry *exact_entry = pht.find(set, lkey);
    const Bitset *exact = exact_entry ? &exact_entry->footprint : nullptr;
    std::vector<const Bitset *> approx;
    if (!exact) {
        pht.forEachInSet(set, [&](uint64_t, Entry &e) {
            if (e.shortTag == skey)
                approx.push_back(&e.footprint);
        });
    }

    PfPattern pat(regionBlocks(), PfLevel::None);
    if (exact) {
        ++exactHits;
        for (size_t b = exact->findFirst(); b < exact->size();
             b = exact->findNext(b + 1))
            pat[b] = PfLevel::L1;
    } else if (!approx.empty()) {
        ++approxHits;
        std::vector<uint32_t> votes(regionBlocks(), 0);
        for (const Bitset *fp : approx)
            for (size_t b = fp->findFirst(); b < fp->size();
                 b = fp->findNext(b + 1))
                ++votes[b];
        double total = double(approx.size());
        for (uint32_t b = 0; b < regionBlocks(); ++b) {
            double share = votes[b] / total;
            if (share >= cfg.l1VoteShare)
                pat[b] = PfLevel::L1;
            else if (share >= cfg.l2VoteShare)
                pat[b] = PfLevel::L2;
        }
    } else {
        return;
    }
    installPattern(info, std::move(pat));
}

void
BingoPrefetcher::learnOnEnd(const RegionInfo &info)
{
    uint64_t skey = shortKey(info);
    uint64_t set = skey & (pht.sets() - 1);

    // Same long event overwrites in place (LruTable::insert semantics);
    // a new long event takes a fresh way, so several patterns sharing
    // one short event coexist — the substrate of approximate voting.
    Entry e;
    e.shortTag = skey;
    e.footprint = info.footprint;
    pht.insert(set, longKey(info), std::move(e));
}

uint64_t
BingoPrefetcher::storageBits() const
{
    // Entry: short tag (16b) + long tag (24b) + LRU (4b) + footprint.
    uint64_t pht_bits = uint64_t(cfg.phtSets) * cfg.phtWays
                        * (16 + 24 + 4 + regionBlocks());
    uint64_t ft_bits = 64ULL * (36 + 3 + 12 + 6);
    uint64_t at_bits = 64ULL * (36 + 3 + 12 + regionBlocks());
    uint64_t pb_bits = uint64_t(baseParams().pbEntries)
                       * (36 + 3 + 2 * regionBlocks());
    return pht_bits + ft_bits + at_bits + pb_bits;
}

PrefetcherDescriptor
bingoDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "bingo";
    d.doc = "Bingo (HPCA'19): exact long-event match to L1D, voted "
            "approximate match split across L1/L2";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        return std::make_unique<BingoPrefetcher>();
    };
    return d;
}

} // namespace gaze
