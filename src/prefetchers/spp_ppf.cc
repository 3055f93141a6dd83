#include "prefetchers/spp_ppf.hh"

#include "prefetchers/registry.hh"

#include <algorithm>

namespace gaze
{

SppPpfPrefetcher::SppPpfPrefetcher(const SppParams &params)
    : cfg(params), st(1, params.stEntries), pt(params.ptSets),
      weights(numFeatures,
              std::vector<int32_t>(params.ppfTableSize, 0)),
      pending(params.ppfHistory)
{
}

void
SppPpfPrefetcher::trainPt(uint16_t sig, int16_t delta)
{
    PtEntry &e = pt[sig % cfg.ptSets];
    ++e.total;
    for (auto &w : e.ways) {
        if (w.conf > 0 && w.delta == delta) {
            if (++w.conf >= cfg.cMax) {
                // Age when the winner saturates (SPP's Csig/Cdelta
                // halving): a dominant delta keeps conf/total ~ 1.
                for (auto &o : e.ways)
                    o.conf /= 2;
                e.total /= 2;
            }
            return;
        }
    }
    // Replace the weakest way.
    auto victim = std::min_element(
        e.ways.begin(), e.ways.end(),
        [](const PtDelta &a, const PtDelta &b) { return a.conf < b.conf; });
    victim->delta = delta;
    victim->conf = 1;
}

int32_t
SppPpfPrefetcher::score(PC pc, Addr target_vaddr, uint16_t sig,
                        int16_t delta, uint32_t depth, double conf,
                        FeatureVec &feats) const
{
    uint32_t sz = cfg.ppfTableSize;
    feats[0] = static_cast<uint16_t>(mix64(pc) % sz);
    feats[1] = static_cast<uint16_t>(regionOffset(target_vaddr) % sz);
    feats[2] = static_cast<uint16_t>(sig % sz);
    feats[3] = static_cast<uint16_t>(uint16_t(delta + 64) % sz);
    feats[4] = static_cast<uint16_t>(depth % sz);
    feats[5] = static_cast<uint16_t>(uint32_t(conf * 16) % sz);

    int32_t sum = 0;
    for (uint32_t f = 0; f < numFeatures; ++f)
        sum += weights[f][feats[f]];
    return sum;
}

void
SppPpfPrefetcher::trainPerceptron(const FeatureVec &feats, bool useful)
{
    for (uint32_t f = 0; f < numFeatures; ++f) {
        int32_t &w = weights[f][feats[f]];
        if (useful)
            w = std::min(w + 1, cfg.ppfWeightMax);
        else
            w = std::max(w - 1, -cfg.ppfWeightMax - 1);
    }
}

void
SppPpfPrefetcher::recordPending(Addr block, const FeatureVec &feats)
{
    while (pendingFifo.size() >= cfg.ppfHistory) {
        pending.erase(pendingFifo.front()); // tolerant of stale slots
        pendingFifo.pop_front();
    }
    // First record for the block wins, as unordered_map::emplace did.
    if (!pending.find(block)) {
        pending.insert(block) = feats;
        pendingFifo.push_back(block);
    }
}

void
SppPpfPrefetcher::onAccess(const DemandAccess &access)
{
    if (access.type != AccessType::Load)
        return;

    Addr block = blockNumber(access.vaddr);

    // Usefulness feedback: a demand touching a block we prefetched is
    // a positive training event for the filter.
    if (cfg.enablePpf) {
        if (const FeatureVec *feats = pending.find(block)) {
            trainPerceptron(*feats, /*useful=*/true);
            pending.erase(block);
        }
    }

    Addr page = pageNumber(access.vaddr);
    uint16_t off = static_cast<uint16_t>(regionOffset(access.vaddr));

    StEntry *e = st.find(0, page);
    if (!e) {
        StEntry fresh;
        fresh.signature = 0;
        fresh.lastOffset = off;
        fresh.valid = true;
        st.insert(0, page, fresh);
        return;
    }

    int16_t delta = int16_t(off) - int16_t(e->lastOffset);
    if (delta == 0)
        return;

    trainPt(e->signature, delta);
    e->signature = nextSignature(e->signature, delta);
    e->lastOffset = off;

    // Lookahead walk along the signature path.
    uint16_t sig = e->signature;
    double path_conf = 1.0;
    int32_t cursor = int32_t(off);
    for (uint32_t depth = 0; depth < cfg.maxDepth; ++depth) {
        const PtEntry &p = pt[sig % cfg.ptSets];
        if (p.total == 0)
            break;
        const PtDelta *best = nullptr;
        for (const auto &w : p.ways)
            if (w.conf > 0 && (!best || w.conf > best->conf))
                best = &w;
        if (!best)
            break;
        double conf = std::min(
            1.0, double(best->conf) / std::max<uint32_t>(1, p.total));
        path_conf *= conf;
        if (path_conf < cfg.pfThreshold)
            break;

        cursor += best->delta;
        // Page-bounded: this SPP has no global history register (GHR)
        // to carry the signature path into the next page.
        if (cursor < 0 || cursor >= int32_t(blocksPerPage))
            break;
        Addr target = (page << pageShift)
                      | (Addr(cursor) << blockShift);

        ++proposed;
        bool accept = true;
        std::array<uint16_t, numFeatures> feats{};
        if (cfg.enablePpf) {
            int32_t s = score(access.pc, target, sig, best->delta,
                              depth, path_conf, feats);
            accept = s >= cfg.ppfThreshold;
        }
        if (accept) {
            uint32_t fill = path_conf >= cfg.fillThreshold ? levelL1
                                                           : levelL2;
            if (issuePrefetch(target, fill, /*virt=*/true)
                && cfg.enablePpf)
                recordPending(blockNumber(target), feats);
        } else {
            ++rejected;
        }
        sig = nextSignature(sig, best->delta);
    }
}

void
SppPpfPrefetcher::onEvict(Addr /*paddr*/, Addr vaddr)
{
    if (!cfg.enablePpf || vaddr == 0)
        return;
    // A prefetched block leaving the cache untouched is a negative
    // training event.
    Addr block = blockNumber(vaddr);
    if (const FeatureVec *feats = pending.find(block)) {
        trainPerceptron(*feats, /*useful=*/false);
        pending.erase(block);
    }
}

uint64_t
SppPpfPrefetcher::storageBits() const
{
    uint64_t st_bits = uint64_t(cfg.stEntries) * (16 + 12 + 6);
    uint64_t pt_bits = uint64_t(cfg.ptSets) * (4 * (7 + 4) + 6);
    // Plain "spp" carries no perceptron tables: its budget must not
    // include the filter it does not have.
    if (!cfg.enablePpf)
        return st_bits + pt_bits;
    uint64_t ppf_bits = uint64_t(numFeatures) * cfg.ppfTableSize * 6
                        + uint64_t(cfg.ppfHistory) * (30 + 16);
    return st_bits + pt_bits + ppf_bits;
}

GAZE_REGISTER_PREFETCHER(spp_ppf)
{
    PrefetcherDescriptor d;
    d.name = "spp_ppf";
    d.doc = "SPP (MICRO'16) with the PPF perceptron prefetch filter "
            "(ISCA'19)";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        return std::make_unique<SppPpfPrefetcher>();
    };
    return d;
}

GAZE_REGISTER_PREFETCHER(spp)
{
    PrefetcherDescriptor d;
    d.name = "spp";
    d.doc = "SPP (MICRO'16) alone: the signature-path predictor "
            "without the perceptron filter";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        SppParams cfg;
        cfg.enablePpf = false;
        return std::make_unique<SppPpfPrefetcher>(cfg);
    };
    return d;
}

} // namespace gaze
