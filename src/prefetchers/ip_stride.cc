#include "prefetchers/ip_stride.hh"

#include "prefetchers/registry.hh"

namespace gaze
{

IpStridePrefetcher::IpStridePrefetcher(const IpStrideParams &params)
    : cfg(params), table(params.sets, params.ways)
{
}

void
IpStridePrefetcher::onAccess(const DemandAccess &access)
{
    if (access.type != AccessType::Load)
        return;

    uint64_t h = mix64(access.pc);
    uint64_t set = h & (table.sets() - 1);
    uint64_t tag = h >> 8;

    Addr block = blockNumber(access.vaddr);
    Entry *e = table.find(set, tag);
    if (!e) {
        Entry fresh;
        fresh.lastBlock = block;
        fresh.stride = 0;
        fresh.conf = SatCounter(cfg.confMax, 0);
        table.insert(set, tag, fresh);
        return;
    }

    int64_t delta = int64_t(block) - int64_t(e->lastBlock);
    if (delta == 0)
        return; // same block; no stride information
    e->lastBlock = block;

    if (delta == e->stride) {
        e->conf.increment();
    } else {
        if (e->conf.value() > 0) {
            e->conf.decrement();
        } else {
            e->stride = delta;
        }
        return;
    }

    if (e->conf.value() < cfg.confThreshold)
        return;

    uint32_t degree = cfg.degree +
                      (e->conf.saturated() ? cfg.boostDegree : 0);
    Addr page = pageNumber(access.vaddr);
    for (uint32_t i = 1; i <= degree; ++i) {
        int64_t target = int64_t(block) + e->stride * int64_t(i);
        if (target < 0)
            break;
        Addr taddr = Addr(target) << blockShift;
        // Physical-style page bound: IP-stride does not cross 4KB pages.
        if (pageNumber(taddr) != page)
            break;
        issuePrefetch(taddr, levelL1, /*virt=*/true);
    }
}

uint64_t
IpStridePrefetcher::storageBits() const
{
    // tag(12) + last block(30) + stride(7) + conf(2) per entry.
    return uint64_t(cfg.sets) * cfg.ways * (12 + 30 + 7 + 2);
}

PrefetcherDescriptor
ipStrideDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "ip_stride";
    d.doc = "per-IP stride prefetcher (the commercial baseline the "
            "paper normalizes against)";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        return std::make_unique<IpStridePrefetcher>();
    };
    return d;
}

} // namespace gaze
