#include "sim/cache.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/vmem.hh"

namespace gaze
{
namespace
{

/** Queue @p req with its address block-aligned: one copy, in place. */
void
pushAligned(RingBuffer<Request> &q, const Request &req)
{
    q.push_back(req);
    Request &queued = q.back();
    queued.paddr = blockAlign(queued.paddr);
}

} // namespace

Cache::Cache(const CacheParams &params, MemoryDevice *lower_dev,
             const Cycle *clock_ptr, RequestPool *pool_ptr)
    : cfg(params), lower(lower_dev),
      lowerCache(dynamic_cast<Cache *>(lower_dev)), clock(clock_ptr),
      pool(pool_ptr),
      tagArr(size_t(params.sets) * params.ways, 0),
      validMask(params.sets, 0),
      meta(size_t(params.sets) * params.ways),
      lru(params.sets, params.ways),
      readQ(params.rqSize), writeQ(params.wqSize),
      prefetchQ(params.pqSize), mshr(params.mshrs)
{
    GAZE_ASSERT(isPowerOfTwo(cfg.sets),
                cfg.name, ": sets must be a power of two, got ", cfg.sets);
    GAZE_ASSERT(cfg.ways >= 1, cfg.name, ": cache needs at least one way");
    GAZE_ASSERT(cfg.mshrs >= 1, cfg.name, ": cache needs at least one MSHR");
    GAZE_ASSERT(lower != nullptr, "cache needs a lower level");
    GAZE_ASSERT(clock != nullptr, "cache needs a clock");
    if (!pool) {
        ownedPool = std::make_unique<RequestPool>();
        pool = ownedPool.get();
    }
    if (lowerCache)
        lowerCache->addSender(&gate, this);
}

void
Cache::addSender(WakeGate *sender_gate, Cache *sender_cache)
{
    senderGates.push_back(sender_gate);
    if (sender_cache)
        senderCaches.push_back(sender_cache);
}

Cache::~Cache()
{
    // Runs can end with fetches in flight; their waiter chains go
    // back to the pool here so System can assert pool balance.
    mshr.forEachInOrder(
        [this](Addr, MshrEntry &e) { pool->releaseChain(e.waitersHead); });
}

void
Cache::setPrefetcher(Prefetcher *prefetcher, VirtualMemory *vm,
                     const Dram *dram, uint32_t cpu)
{
    GAZE_ASSERT(std::none_of(tagArr.begin(), tagArr.end(),
                             [](Addr t) { return t & kBlkValid; }),
                cfg.name, ": prefetcher attached after the first fill");
    pf = prefetcher;
    vmem = vm;
    if (pf) {
        PrefetcherContext ctx;
        ctx.cache = this;
        ctx.vmem = vm;
        ctx.dram = dram;
        ctx.cpu = cpu;
        ctx.level = cfg.level;
        pf->attach(ctx);
    }
}

uint32_t
Cache::setIndex(Addr paddr) const
{
    return static_cast<uint32_t>(blockNumber(paddr) & (cfg.sets - 1));
}

size_t
Cache::lookupSlot(Addr paddr) const
{
    // One compare per way: a tag word with the valid bit set and the
    // dirty/prefetch bits masked off must equal (aligned addr | valid).
    Addr want = blockAlign(paddr) | kBlkValid;
    size_t base = size_t(setIndex(paddr)) * cfg.ways;
    for (uint32_t w = 0; w < cfg.ways; ++w) {
        if ((tagArr[base + w] & ~(kBlkDirty | kBlkPrefetch)) == want)
            return base + w;
    }
    return kNoSlot;
}

bool
Cache::present(Addr paddr) const
{
    return lookupSlot(paddr) != kNoSlot;
}

bool
Cache::sendRequest(const Request &req)
{
    switch (req.type) {
      case AccessType::Load:
      case AccessType::Rfo:
        if (readQ.size() >= cfg.rqSize) {
            rqRefused = true;
            return false;
        }
        pushAligned(readQ, req);
        gate.requestWake(now());
        return true;
      case AccessType::Writeback:
        // Writebacks are sunk unconditionally: they come from
        // evictions inside a fill, which cannot be retried, so a full
        // WQ refusing them would deadlock fills. Occupancy is still
        // tracked so DRAM write-drain pressure is realistic.
        pushAligned(writeQ, req);
        gate.requestWake(now());
        return true;
      case AccessType::Prefetch:
        if (prefetchQ.size() >= cfg.pqSize) {
            ++stat.pfDroppedFull;
            pqRefused = true;
            return false;
        }
        pushAligned(prefetchQ, req);
        gate.requestWake(now());
        return true;
    }
    GAZE_PANIC("unroutable request type");
}

bool
Cache::issuePrefetch(Addr addr, uint32_t fill_level, bool virt,
                     uint32_t cpu)
{
    // A scheme written for L1D attach may ask for an L1 fill while
    // running at L2C (Fig. 13 combos): clamp to this cache's level.
    fill_level = std::max(fill_level, cfg.level);
    GAZE_ASSERT(fill_level <= levelLLC, "bad prefetch fill level");
    Request r;
    r.type = AccessType::Prefetch;
    r.cpu = cpu;
    r.fillLevel = fill_level;
    r.pfScheme = pf ? pf->schemeId() : 0;
    r.issueCycle = now();
    if (virt) {
        GAZE_ASSERT(vmem, "virtual prefetch needs vmem at ", cfg.name);
        r.vaddr = blockAlign(addr);
        r.paddr = blockAlign(vmem->translate(addr, cpu));
    } else {
        r.vaddr = 0;
        r.paddr = blockAlign(addr);
    }

    // ChampSim-style PQ dedup: an identical pending target is not
    // queued twice (delta prefetchers re-propose the same block on
    // every access of a cache line).
    for (size_t i = 0; i < prefetchQ.size(); ++i) {
        if (prefetchQ[i].paddr == r.paddr) {
            ++stat.pfDroppedDup;
            return true;
        }
    }
    if (prefetchQ.size() >= cfg.pqSize) {
        ++stat.pfDroppedFull;
        return false;
    }
    prefetchQ.push_back(r);
    ++stat.pfIssued;
    if (r.pfScheme)
        ++schemeSlot(r.pfScheme).issued;
    // Covers prefetchers driven from outside this cache's tick (unit
    // tests poking onAccess by hand); from inside a tick this is a
    // no-op — the end-of-tick wake hint sees the non-empty PQ.
    gate.requestWake(now());
    return true;
}

void
Cache::scheduleResponse(RingBuffer<PendingResponse> &fifo,
                        const Request &req, Cycle when)
{
    GAZE_ASSERT(fifo.empty() || fifo.back().ready <= when, cfg.name,
                ": response FIFO out of ready order");
    fifo.push_back(PendingResponse{when, responseSeq++, req});
}

void
Cache::deliverResponses()
{
    for (;;) {
        RingBuffer<PendingResponse> *fifo = &hitResponses;
        if (hitResponses.empty() ||
            (!fillResponses.empty() &&
             fillResponses.front() < hitResponses.front()))
            fifo = &fillResponses;
        if (fifo->empty() || fifo->front().ready > now())
            return;
        // Delivered in place, popped after: nothing pushes to this
        // cache's own response FIFOs while it delivers (a requester's
        // recvFill schedules on its own FIFOs, and the writebacks its
        // fill sends here go to the write queue).
        const Request &r = fifo->front().req;
        if (r.requester)
            r.requester->recvFill(r);
        fifo->pop_front();
    }
}

void
Cache::notifyPrefetcherAccess(const Request &req, bool hit)
{
    if (!pf || !req.isDemand())
        return;
    DemandAccess a;
    a.vaddr = req.vaddr;
    a.paddr = req.paddr;
    a.pc = req.pc;
    a.hit = hit;
    a.type = req.type;
    a.cycle = now();
    a.cpu = req.cpu;
    pf->onAccess(a);
}

void
Cache::appendWaiter(MshrEntry &e, const Request &req)
{
    RequestPool::Node *n = pool->alloc(req);
    if (e.waitersTail)
        e.waitersTail->next = n;
    else
        e.waitersHead = n;
    e.waitersTail = n;
}

bool
Cache::missToMshr(const Request &req)
{
    if (MshrEntry *e = mshr.find(req.paddr)) {
        if (req.isDemand()) {
            if (e->wasPrefetchOnly && !e->demanded) {
                ++stat.pfLate;
                (req.type == AccessType::Load ? stat.loadMissLate
                                              : stat.rfoMissLate)++;
                if (e->downstream.pfScheme)
                    ++schemeSlot(e->downstream.pfScheme).late;
            }
            e->demanded = true;
            // A demand upgrade pulls the fill all the way in.
            e->downstream.fillLevel =
                std::min(e->downstream.fillLevel, req.fillLevel);
        }
        appendWaiter(*e, req);
        ++stat.mshrMerge;
        return true;
    }

    if (mshr.full())
        return false;

    MshrEntry &e = mshr.insert(req.paddr);
    e.downstream = req;
    e.downstream.requester = this;
    e.downstream.issueCycle = now();
    e.demanded = req.isDemand();
    e.wasPrefetchOnly = !req.isDemand();
    e.allocCycle = now();
    appendWaiter(e, req);
    e.issuedToLower = sendLower(e.downstream);
    if (!e.issuedToLower) {
        ++unissuedMshrs;
        pollNext = true; // the retry set changed: retry it next cycle
    }
    return true;
}

bool
Cache::handleRead(const Request &req)
{
    bool is_load = req.type == AccessType::Load;

    size_t slot = lookupSlot(req.paddr);
    if (slot != kNoSlot) {
        (is_load ? stat.loadAccess : stat.rfoAccess)++;
        (is_load ? stat.loadHit : stat.rfoHit)++;
        uint32_t set = setIndex(req.paddr);
        uint32_t way = static_cast<uint32_t>(slot
                                             - size_t(set) * cfg.ways);
        lru.touch(set, way);
        if (tagArr[slot] & kBlkPrefetch) {
            ++stat.pfUseful;
            if (meta[slot].pfScheme) {
                SchemeStats &ss = schemeSlot(meta[slot].pfScheme);
                ++ss.useful;
                ss.fillToUseSum += now() - meta[slot].fillCycle;
                ++ss.fillToUseCnt;
            }
            tagArr[slot] &= ~kBlkPrefetch;
        }
        if (req.type == AccessType::Rfo)
            tagArr[slot] |= kBlkDirty;
        if (pf && req.vaddr)
            meta[slot].vaddr = blockAlign(req.vaddr);
        notifyPrefetcherAccess(req, true);
        scheduleResponse(hitResponses, req, now() + cfg.latency);
        return true;
    }

    if (!missToMshr(req)) {
        // Retry once a fill frees an MSHR; count the access only when
        // it proceeds so the prefetcher is not double-trained on
        // stalls.
        ++stat.mshrFullStall;
        return false;
    }
    (is_load ? stat.loadAccess : stat.rfoAccess)++;
    (is_load ? stat.loadMiss : stat.rfoMiss)++;
    notifyPrefetcherAccess(req, false);
    return true;
}

bool
Cache::handleWrite(const Request &req)
{
    ++stat.wbAccess;
    size_t slot = lookupSlot(req.paddr);
    if (slot != kNoSlot) {
        ++stat.wbHit;
        tagArr[slot] |= kBlkDirty;
        return true;
    }
    // Non-inclusive writeback miss: the line is complete, so allocate
    // directly without fetching from below.
    ++stat.wbMiss;
    fillBlock(req, /*mark_prefetch=*/false);
    return true;
}

Cache::PfOutcome
Cache::handlePrefetch(const Request &req)
{
    if (req.fillLevel > cfg.level) {
        // Targeted at a lower level: pass it down untouched. The lower
        // cache adopts it as its own prefetch request.
        return sendLower(req) ? PfOutcome::Done : PfOutcome::Refused;
    }

    size_t slot = lookupSlot(req.paddr);
    if (slot != kNoSlot) {
        // Redundant prefetch. A requester-less prefetch (issued at
        // this level) is simply dropped; one that came from an upper
        // cache's MSHR must be answered or that MSHR leaks.
        ++stat.pfDroppedHit;
        if (req.requester) {
            uint32_t set = setIndex(req.paddr);
            uint32_t way = static_cast<uint32_t>(
                slot - size_t(set) * cfg.ways);
            lru.touch(set, way);
            scheduleResponse(hitResponses, req, now() + cfg.latency);
        }
        return PfOutcome::Done;
    }
    if (MshrEntry *e = mshr.find(req.paddr)) {
        // Already being fetched: ride along (or drop if local).
        ++stat.pfDroppedHit;
        if (req.requester) {
            appendWaiter(*e, req);
            ++stat.mshrMerge;
        }
        return PfOutcome::Done;
    }
    if (mshr.full()) {
        ++stat.pfMshrWait;
        if (req.requester)
            return PfOutcome::MshrWait; // dropping would leak upper MSHR
        if (cfg.level == levelL1) {
            // The L1 PQ holds mixed fill levels; a waiting L1-fill
            // head would starve L2-targeted prefetches behind it.
            // Demote it instead: fetch anyway, park one level out (a
            // later demand hits L2 instead of DRAM — most of the
            // benefit, none of the clog).
            Request demoted = req;
            demoted.fillLevel = cfg.level + 1;
            if (!sendLower(demoted))
                return PfOutcome::MshrWait;
            ++stat.pfDemoted;
            return PfOutcome::Done;
        }
        // L2/LLC PQs are homogeneous (everything targets this level
        // or beyond), so waiting at the head starves nothing, and the
        // fetch keeps its slot until an MSHR frees.
        return PfOutcome::MshrWait;
    }
    // The MSHR file has room, so the miss always allocates.
    missToMshr(req);
    return PfOutcome::Done;
}

void
Cache::tick()
{
    // Wake gate (see sim/wake_gate.hh): skip cycles where the last
    // tick's nextWakeCycle() proved (and no wake since lowered the bar)
    // that ticking can have no effect but to repeat its refusals,
    // which settle() counts here.
    if (!gate.due(now()))
        return;
    settle(now());

    // Each loop below records how it ended. One that stopped on a
    // refusal (a full MSHR file, a lower level's full queue, the PQ
    // refusing the prefetcher) repeats it every cycle until a fill, a
    // new request or the lower level's freed slot wakes this cache,
    // so the cache sleeps and stallRate is what each skipped tick
    // would have counted. Anything else sets pollNext.
    stallRate = StallRate{};
    pollNext = false;

    deliverResponses();
    retryUnissuedMshrs();

    uint32_t ops = 0;

    // Demand reads take priority for tag bandwidth. Both loops handle
    // the queue head in place: the read and prefetch queues refuse at
    // capacity and so never grow, and a push while a head is handled
    // (the prefetcher's, into the PQ) moves no element.
    bool read_blocked = false;
    while (ops < kTagPorts && !readQ.empty()) {
        if (!handleRead(readQ.front())) {
            read_blocked = true; // head-of-line stall
            stallRate.mshrFullStall = 1;
            break;
        }
        popHead(readQ, rqRefused);
        ++ops;
    }

    // One writeback per cycle keeps WQ drain realistic but cheap.
    if (!writeQ.empty()) {
        Request req = writeQ.front();
        writeQ.pop_front();
        handleWrite(req);
        // Its fill can turn the refused read head into a hit. (The PQ
        // loop and the prefetcher below already see it.)
        if (read_blocked)
            pollNext = true;
    }

    bool pq_blocked = false;
    while (ops < kTagPorts && !prefetchQ.empty()) {
        PfOutcome out = handlePrefetch(prefetchQ.front());
        if (out != PfOutcome::Done) {
            pq_blocked = true;
            stallRate.pfMshrWait = out == PfOutcome::MshrWait;
            break;
        }
        popHead(prefetchQ, pqRefused);
        ++ops;
    }

    if (pf) {
        // A busy prefetcher sleeps only on a drain the full PQ refused
        // behind a blocked head, so the queue cannot change (see
        // Prefetcher::tick()).
        uint64_t dropped = stat.pfDroppedFull;
        pf->tick();
        stallRate.pfDroppedFull =
            static_cast<uint32_t>(stat.pfDroppedFull - dropped);
        if (pf->busy() && !(pq_blocked && stallRate.pfDroppedFull > 0))
            pollNext = true;
    }

    // A queue whose loop ran out of tag ports, or that the prefetcher
    // refilled after its loop, has work for the next cycle.
    if ((!readQ.empty() && !read_blocked)
        || (!prefetchQ.empty() && !pq_blocked))
        pollNext = true;

    settleFrom = now() + 1;
    gate.tickDone(nextWakeCycle());
}

void
Cache::retryUnissuedMshrs()
{
    if (unissuedMshrs == 0)
        return;
    uint32_t budget = 2;
    // Insertion order: the oldest stranded fetch retries first, a
    // deterministic FIFO precedence (the hash map this table replaced
    // retried in unspecified bucket order).
    mshr.forEachInOrder([&](Addr, MshrEntry &e) {
        if (e.issuedToLower)
            return true;
        e.issuedToLower = sendLower(e.downstream);
        if (e.issuedToLower) {
            --unissuedMshrs;
            pollNext = true; // the retry set changed
        }
        return --budget != 0;
    });
}

bool
Cache::sendLower(const Request &req)
{
    if (lower->sendRequest(req))
        return true;
    if (!lowerCache)
        pollNext = true; // DRAM never wakes its senders: retry each cycle
    else if (req.type == AccessType::Prefetch)
        ++stallRate.lowerPfDroppedFull; // the lower counted pfDroppedFull
    return false;
}

void
Cache::popHead(RingBuffer<Request> &q, bool &refused)
{
    q.pop_front();
    if (!refused)
        return;
    // The queue was full and refused a sender, so this frees the slot
    // it waits for. Senders tick before this cache, so they retry at
    // the next cycle, exactly when an ungated sender would have.
    refused = false;
    for (WakeGate *g : senderGates)
        g->requestWake(now() + 1);
}

void
Cache::settle(Cycle until)
{
    if (until <= settleFrom)
        return;
    uint64_t n = until - settleFrom;
    settleFrom = until;
    stat.mshrFullStall += n * stallRate.mshrFullStall;
    stat.pfMshrWait += n * stallRate.pfMshrWait;
    stat.pfDroppedFull += n * stallRate.pfDroppedFull;
    if (lowerCache)
        lowerCache->stat.pfDroppedFull += n * stallRate.lowerPfDroppedFull;
}

void
Cache::settleWithSenders(Cycle until)
{
    for (Cache *c : senderCaches)
        c->settle(until);
    settle(until);
}

void
Cache::fillBlock(const Request &req, bool mark_prefetch)
{
    uint32_t set = setIndex(req.paddr);
    uint32_t way = lru.victim(set, validMask[set]);
    size_t slot = size_t(set) * cfg.ways + way;
    Addr old = tagArr[slot];

    Addr evicted = 0;
    if (old & kBlkValid) {
        evicted = old & ~kBlkFlags;
        if (old & kBlkPrefetch) {
            ++stat.pfUseless;
            if (meta[slot].pfScheme)
                ++schemeSlot(meta[slot].pfScheme).useless;
        }
        if (old & kBlkDirty) {
            Request wb;
            wb.type = AccessType::Writeback;
            wb.paddr = evicted;
            wb.cpu = req.cpu;
            wb.fillLevel = cfg.level + 1;
            wb.issueCycle = now();
            lower->sendRequest(wb);
            ++stat.writebacksSent;
        }
        if (pf)
            pf->onEvict(evicted, meta[slot].vaddr);
    }

    GAZE_ASSERT((req.paddr & kBlkFlags) == 0, "unaligned fill address");
    Addr tag = req.paddr | kBlkValid;
    // RFO fills dirty the block at the level the store lives (L1);
    // copies allocated further out on the response path stay clean.
    if (req.type == AccessType::Writeback ||
        (req.type == AccessType::Rfo && cfg.level == req.fillLevel))
        tag |= kBlkDirty;
    if (mark_prefetch)
        tag |= kBlkPrefetch;
    tagArr[slot] = tag;
    validMask[set] |= uint64_t(1) << way;
    if (mark_prefetch || pf) {
        meta[slot].pfScheme = mark_prefetch ? req.pfScheme : 0;
        meta[slot].fillCycle = now();
        meta[slot].vaddr = req.vaddr ? blockAlign(req.vaddr) : 0;
    }
    lru.touch(set, way);

    if (mark_prefetch) {
        ++stat.pfFilled;
        if (req.pfScheme)
            ++schemeSlot(req.pfScheme).filled;
    }

    if (pf && req.type != AccessType::Writeback) {
        FillEvent f;
        f.paddr = req.paddr;
        f.vaddr = meta[slot].vaddr;
        f.pc = req.pc;
        f.prefetch = mark_prefetch;
        f.latency = now() >= req.issueCycle ? now() - req.issueCycle : 0;
        f.evictedPaddr = evicted;
        f.cycle = now();
        pf->onFill(f);
    }
}

void
Cache::recvFill(const Request &req)
{
    // The entry is used in place and erased last: no MSHR is inserted
    // or erased during a fill (only this cache's tick inserts, and
    // only recvFill erases), so the reference stays valid.
    MshrEntry *slot = mshr.find(req.paddr);
    GAZE_ASSERT(slot, cfg.name, ": fill without MSHR for 0x",
                std::hex, req.paddr);
    MshrEntry &e = *slot;

    // Mark the block as a prefetch only when this level is the
    // prefetch's target and no demand merged while it was in flight.
    bool pure_prefetch = e.wasPrefetchOnly && !e.demanded;
    bool mark_pf = pure_prefetch &&
                   e.downstream.fillLevel == cfg.level;

    // Fill wherever level >= fillLevel (response path allocation),
    // with the vaddr of the first waiter that knows it.
    for (const RequestPool::Node *w = e.waitersHead; w; w = w->next) {
        if (w->req.vaddr) {
            e.downstream.vaddr = w->req.vaddr;
            break;
        }
    }
    if (cfg.level >= e.downstream.fillLevel)
        fillBlock(e.downstream, mark_pf);

    if (e.demanded) {
        Cycle lat = now() - e.allocCycle;
        stat.demandMissLatencySum += lat;
        ++stat.demandMissLatencyCnt;
    }

    // Wake all waiters one cycle later (fill-to-use forwarding), then
    // recycle the chain.
    for (const RequestPool::Node *w = e.waitersHead; w; w = w->next) {
        if (w->req.requester)
            scheduleResponse(fillResponses, w->req, now() + 1);
    }
    pool->releaseChain(e.waitersHead);
    mshr.erase(req.paddr);

    // This call arrives from the lower level's tick, after this
    // cache's own tick of the cycle: anything it set in motion (the
    // pending responses, a prefetcher pattern installed by onFill)
    // starts next cycle.
    gate.requestWake(now() + 1);
}

Cycle
Cache::nextWakeCycle() const
{
    // Work the last tick could advance makes the very next cycle
    // potentially productive: an ungated tick would process it then,
    // so the gate must open then too. Work it left on a refusal waits
    // for the wake-up that lifts the refusal (see tick()).
    if (pollNext || !writeQ.empty())
        return now() + 1;
    // Otherwise the only self-known work is delivering already
    // scheduled responses (all strictly in the future here, since
    // tick() drained everything due); the earlier FIFO head is next.
    Cycle wake = kNeverWake;
    if (!hitResponses.empty())
        wake = hitResponses.front().ready;
    if (!fillResponses.empty())
        wake = std::min(wake, fillResponses.front().ready);
    return wake;
}

bool
Prefetcher::issuePrefetch(Addr addr, uint32_t fill_level, bool virt)
{
    GAZE_ASSERT(context.cache, "prefetcher not attached");
    return context.cache->issuePrefetch(addr, fill_level, virt,
                                        context.cpu);
}

} // namespace gaze
