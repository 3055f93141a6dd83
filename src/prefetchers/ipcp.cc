#include "prefetchers/ipcp.hh"

#include "prefetchers/registry.hh"

#include "common/bitset.hh"

namespace gaze
{

IpcpPrefetcher::IpcpPrefetcher(const IpcpParams &params)
    : cfg(params), ipTable(params.ipSets, params.ipWays),
      cspt(params.csptEntries), rst(1, params.rstEntries),
      rr(params.rrEntries, 0)
{
}

bool
IpcpPrefetcher::rrContains(Addr block) const
{
    for (Addr a : rr)
        if (a == block && a != 0)
            return true;
    return false;
}

void
IpcpPrefetcher::rrInsert(Addr block)
{
    rr[rrNext] = block;
    rrNext = (rrNext + 1) % rr.size();
}

void
IpcpPrefetcher::issueLine(Addr vaddr, uint32_t fill_level)
{
    Addr block = blockNumber(vaddr);
    if (rrContains(block))
        return;
    rrInsert(block);
    issuePrefetch(vaddr, fill_level, /*virt=*/true);
}

void
IpcpPrefetcher::onAccess(const DemandAccess &access)
{
    if (access.type != AccessType::Load)
        return;

    Addr block = blockNumber(access.vaddr);
    Addr page = pageNumber(access.vaddr);
    uint32_t off = regionOffset(access.vaddr);

    // --- Region stream tracking (GS class substrate) -----------------
    uint64_t rtag = page;
    RstEntry *r = rst.find(0, rtag);
    if (!r) {
        RstEntry fresh;
        fresh.seen = Bitset(blocksPerPage);
        rst.insert(0, rtag, std::move(fresh));
        r = rst.find(0, rtag);
    }
    if (!r->seen.test(off)) {
        r->seen.set(off);
        if (++r->touched >= cfg.gsDenseThreshold)
            r->streaming = true;
    }

    // --- Per-IP classification ---------------------------------------
    uint64_t h = mix64(access.pc);
    uint64_t set = h & (ipTable.sets() - 1);
    uint64_t tag = h >> 8;
    IpEntry *e = ipTable.find(set, tag);
    if (!e) {
        IpEntry fresh;
        fresh.lastBlock = block;
        ipTable.insert(set, tag, fresh);
        return;
    }

    int64_t delta = int64_t(block) - int64_t(e->lastBlock);
    e->lastBlock = block;
    if (delta == 0)
        return;

    // Constant-stride confidence.
    if (delta == e->stride) {
        e->conf.increment();
    } else {
        if (e->conf.value() > 0)
            e->conf.decrement();
        else
            e->stride = delta;
    }

    // CSPT training on the stride signature chain.
    uint32_t sig_idx = e->signature % cfg.csptEntries;
    CsptEntry &ce = cspt[sig_idx];
    if (ce.stride == delta)
        ce.conf.increment();
    else if (ce.conf.value() > 0)
        ce.conf.decrement();
    else
        ce.stride = delta;
    e->signature = static_cast<uint16_t>(((e->signature << 3)
                                          ^ uint64_t(delta & 0x3f))
                                         & 0x3ff);

    // Classification priority: GS > CS > CPLX (as in IPCP).
    if (r->streaming)
        e->cls = IpClass::GlobalStream;
    else if (e->conf.value() >= 2)
        e->cls = IpClass::ConstantStride;
    else if (cspt[e->signature % cfg.csptEntries].conf.value() >= 2)
        e->cls = IpClass::Complex;
    else
        e->cls = IpClass::None;

    // --- Prefetch generation -----------------------------------------
    switch (e->cls) {
      case IpClass::GlobalStream: {
        int dir = delta >= 0 ? 1 : -1;
        for (uint32_t i = 1; i <= cfg.gsDegree; ++i) {
            int64_t t = int64_t(block) + dir * int64_t(i);
            if (t < 0)
                break;
            Addr va = Addr(t) << blockShift;
            if (pageNumber(va) != page)
                break;
            issueLine(va, i <= cfg.gsDegree / 2 ? levelL1 : levelL2);
        }
        break;
      }
      case IpClass::ConstantStride: {
        for (uint32_t i = 1; i <= cfg.csDegree; ++i) {
            int64_t t = int64_t(block) + e->stride * int64_t(i);
            if (t < 0)
                break;
            Addr va = Addr(t) << blockShift;
            if (pageNumber(va) != page)
                break;
            issueLine(va, levelL1);
        }
        break;
      }
      case IpClass::Complex: {
        uint16_t sig = e->signature;
        int64_t cursor = int64_t(block);
        for (uint32_t d = 0; d < cfg.cplxDepth; ++d) {
            const CsptEntry &c = cspt[sig % cfg.csptEntries];
            if (c.conf.value() < 2 || c.stride == 0)
                break;
            cursor += c.stride;
            if (cursor < 0)
                break;
            Addr va = Addr(cursor) << blockShift;
            if (pageNumber(va) != page)
                break;
            issueLine(va, d == 0 ? levelL1 : levelL2);
            sig = static_cast<uint16_t>(((sig << 3)
                                         ^ uint64_t(c.stride & 0x3f))
                                        & 0x3ff);
        }
        break;
      }
      case IpClass::None:
        break;
    }
}

uint64_t
IpcpPrefetcher::storageBits() const
{
    // IP table entry: tag(8)+last(12)+stride(7)+conf(2)+sig(10)+cls(2).
    uint64_t ip_bits = uint64_t(cfg.ipSets) * cfg.ipWays * 41;
    uint64_t cspt_bits = uint64_t(cfg.csptEntries) * (7 + 2);
    uint64_t rst_bits = uint64_t(cfg.rstEntries) * (20 + 64 + 6 + 1);
    uint64_t rr_bits = uint64_t(cfg.rrEntries) * 16;
    return ip_bits + cspt_bits + rst_bits + rr_bits;
}

PrefetcherDescriptor
ipcpDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "ipcp";
    d.doc = "IPCP (ISCA'20): per-IP classification into constant "
            "stride / complex stride / streaming prefetch classes";
    d.build = [](const SpecOptions &) -> std::unique_ptr<Prefetcher> {
        return std::make_unique<IpcpPrefetcher>();
    };
    return d;
}

} // namespace gaze
