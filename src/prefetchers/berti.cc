#include "prefetchers/berti.hh"

#include "prefetchers/registry.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/cache.hh"
#include "sim/vmem.hh"

namespace gaze
{

BertiPrefetcher::BertiPrefetcher(const BertiParams &params)
    : cfg(params), table(params.tableSets, params.tableWays)
{
}

BertiPrefetcher::PcEntry *
BertiPrefetcher::findPc(PC pc, bool alloc)
{
    uint64_t h = mix64(pc);
    uint64_t set = h & (table.sets() - 1);
    uint64_t tag = h >> 8;
    PcEntry *e = table.find(set, tag);
    if (!e && alloc) {
        table.insert(set, tag, PcEntry{});
        e = table.find(set, tag);
    }
    return e;
}

void
BertiPrefetcher::creditDelta(PcEntry &e, int32_t delta)
{
    for (auto &d : e.deltas) {
        if (d.hits > 0 && d.delta == delta) {
            ++d.hits;
            return;
        }
    }
    // New candidate: take an empty slot, or the weakest non-promoted
    // slot (promoted deltas are protected within the window).
    DeltaStat *victim = nullptr;
    for (auto &d : e.deltas) {
        if (d.hits == 0 && d.status == 0) {
            victim = &d;
            break;
        }
        if (d.status == 0 && (!victim || d.hits < victim->hits))
            victim = &d;
    }
    if (victim) {
        victim->delta = delta;
        victim->hits = 1;
    }
}

void
BertiPrefetcher::closeWindow(PcEntry &e)
{
    // Convert this window's timely-hit-per-fill ratios into status.
    double window = double(cfg.windowFills);
    for (auto &d : e.deltas) {
        double ratio = d.hits / window;
        if (d.hits == 0 && d.status == 0)
            continue;
        if (ratio >= cfg.l1Confidence)
            d.status = 2;
        else if (ratio >= cfg.l2Confidence)
            d.status = 1;
        else
            d.status = 0;
        d.hits = 0;
    }
    e.windowFillCount = 0;
}

void
BertiPrefetcher::onAccess(const DemandAccess &access)
{
    if (access.type != AccessType::Load)
        return;

    Addr block = blockNumber(access.vaddr);

    // Record into the shared history used for timeliness search.
    history.push_back(HistoryRecord{access.pc, block, access.cycle});
    if (history.size() > cfg.historySize)
        history.pop_front();

    PcEntry *e = findPc(access.pc, /*alloc=*/true);

    // Issue the learned deltas, most aggressive first. Berti issues on
    // every access with no residency check: redundant targets are
    // dropped at the L1D tag, but they still consumed PQ slots.
    struct Cand
    {
        int32_t delta;
        uint8_t status;
    };
    std::array<Cand, 16> cands;
    uint32_t n = 0;
    for (const auto &d : e->deltas)
        if (d.status > 0)
            cands[n++] = Cand{d.delta, d.status};
    std::sort(cands.begin(), cands.begin() + n,
              [](const Cand &a, const Cand &b) {
                  return a.status > b.status;
              });

    uint32_t issued = 0;
    int64_t max_reach = int64_t(cfg.pageReach) * int64_t(blocksPerPage);
    for (uint32_t i = 0; i < n && issued < cfg.maxIssuePerAccess; ++i) {
        int64_t target = int64_t(block) + cands[i].delta;
        if (target < 0)
            continue;
        if (std::llabs(int64_t(cands[i].delta)) > max_reach)
            continue; // beyond the eight-virtual-page restriction
        Addr vaddr = Addr(target) << blockShift;
        if (cfg.oracleFilter && context.cache && context.vmem) {
            // Oracle vBerti: peek at the L1D tags and drop redundant
            // requests before they occupy PQ slots.
            Addr paddr = context.vmem->translate(vaddr, context.cpu);
            if (context.cache->present(paddr)) {
                ++oracleDrops;
                continue;
            }
        }
        issuePrefetch(vaddr, cands[i].status == 2 ? levelL1 : levelL2,
                      /*virt=*/true);
        ++issued;
    }
}

void
BertiPrefetcher::onFill(const FillEvent &fill)
{
    if (fill.prefetch || fill.vaddr == 0)
        return;

    // A demand fill completed with latency `fill.latency`; the demand
    // itself was at (fill.cycle - latency). A prefetch issued at some
    // earlier access arrives `latency` after that access, so it beats
    // the demand only if the access was at least one full latency
    // before the demand: deadline = demand time - latency.
    Addr block = blockNumber(fill.vaddr);
    Cycle demand_time = fill.cycle >= fill.latency
                        ? fill.cycle - fill.latency : 0;
    Cycle deadline = demand_time >= fill.latency
                     ? demand_time - fill.latency : 0;
    int64_t max_reach = int64_t(cfg.pageReach) * int64_t(blocksPerPage);

    PcEntry *e = findPc(fill.pc, /*alloc=*/false);
    if (!e)
        return;

    // Scan newest-to-oldest for the nearest *timely* accesses by the
    // same PC ("local" deltas are within one PC's stream).
    uint32_t credited = 0;
    for (auto it = history.rbegin();
         it != history.rend() && credited < cfg.creditsPerFill; ++it) {
        if (it->cycle > deadline)
            continue; // too recent: a prefetch then would be late
        if (it->pc != fill.pc)
            continue;
        int64_t delta = int64_t(block) - int64_t(it->block);
        if (delta == 0)
            continue;
        if (std::llabs(delta) > max_reach)
            continue;
        creditDelta(*e, static_cast<int32_t>(delta));
        ++credited;
    }
    if (++e->windowFillCount >= cfg.windowFills)
        closeWindow(*e);
}

uint64_t
BertiPrefetcher::storageBits() const
{
    // Entry: tag(12) + 16 deltas x (delta 13b + hits 5b + status 2b)
    // + window count (5b). The access-history/latency tracking is the
    // L1D-line extension Berti adds (12b per line, §III-E), which the
    // paper accounts against the cache, not this table.
    uint64_t entry_bits = 12 + 16 * (13 + 5 + 2) + 5;
    return uint64_t(cfg.tableSets) * cfg.tableWays * entry_bits;
}

PrefetcherDescriptor
vbertiDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "vberti";
    d.aliases = {"berti"};
    d.doc = "Berti (MICRO'22) on virtual addresses: per-PC timely "
            "local deltas";
    d.options = {
        OptionSchema::flag(
            "oracle",
            "perfect duplicate filtering (upper-bound study used by "
            "the export oracle tests)"),
    };
    d.build = [](const SpecOptions &o) -> std::unique_ptr<Prefetcher> {
        BertiParams cfg;
        if (o.flag("oracle"))
            cfg.oracleFilter = true;
        return std::make_unique<BertiPrefetcher>(cfg);
    };
    return d;
}

} // namespace gaze
