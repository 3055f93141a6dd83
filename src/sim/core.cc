#include "sim/core.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/vmem.hh"

namespace gaze
{

Core::Core(const CoreParams &params, uint32_t cpu_id, MemoryDevice *l1,
           VirtualMemory *vm, const Cycle *clock_ptr)
    : cfg(params), cpu(cpu_id), l1d(l1), vmem(vm), clock(clock_ptr)
{
    GAZE_ASSERT(l1d && vmem && clock, "core wiring incomplete");
}

void
Core::setTrace(TraceSource *t)
{
    trace = t;
    // A core without a trace reports nextWakeCycle() == kNeverWake;
    // binding one creates dispatch work, so the wake hint must drop or
    // the gate would never open again.
    gate.requestWake(now());
}

void
Core::recvFill(const Request &req)
{
    // Fills arrive from the L1D's tick, after this core's tick of the
    // cycle (cores tick first): whatever they unblock starts next
    // cycle, exactly as under the polled engine.
    gate.requestWake(now() + 1);

    if (req.token & storeTokenBit) {
        GAZE_ASSERT(sqOccupancy > 0, "store completion underflow");
        --sqOccupancy;
        return;
    }
    if (rob.empty())
        return;
    uint64_t id = req.token;
    uint64_t head = rob.front().id;
    if (id < head)
        return; // already retired (cannot happen for loads, but be safe)
    size_t idx = id - head;
    GAZE_ASSERT(idx < rob.size(), "fill for unknown instruction");
    RobEntry &e = rob[idx];
    GAZE_ASSERT((e.op == TraceOp::Load
                 || e.op == TraceOp::DependentLoad) && e.issued,
                "bogus load fill");
    if (!e.done) {
        e.done = true;
        GAZE_ASSERT(lqOccupancy > 0, "LQ underflow");
        --lqOccupancy;
    }
}

void
Core::retire()
{
    for (uint32_t n = 0; n < cfg.retireWidth && !rob.empty(); ++n) {
        RobEntry &head = rob.front();
        if (head.op == TraceOp::Store) {
            // Stores retire by firing their RFO; they occupy an SQ
            // slot until the line arrives (write is post-commit).
            if (sqOccupancy >= cfg.sqSize)
                break;
            Request r;
            r.type = AccessType::Rfo;
            r.vaddr = head.vaddr;
            r.paddr = vmem->translate(head.vaddr, cpu);
            r.pc = head.pc;
            r.cpu = cpu;
            r.fillLevel = levelL1;
            r.requester = this;
            r.token = storeTokenBit | head.id;
            r.issueCycle = now();
            if (!l1d->sendRequest(r)) {
                issueBlockedOnL1d = true;
                break;
            }
            ++sqOccupancy;
            ++stat.stores;
        } else if (!head.done) {
            break;
        } else if (head.op == TraceOp::Load
                   || head.op == TraceOp::DependentLoad) {
            ++stat.loads;
        }
        rob.pop_front();
        ++retiredCount;
        ++stat.instructions;
    }
}

void
Core::issueLoads()
{
    uint32_t issued = 0;
    while (issued < cfg.loadPorts && !pendingLoadOffsets.empty()) {
        if (lqOccupancy >= cfg.lqSize)
            return;
        uint64_t id = pendingLoadOffsets.front();
        GAZE_ASSERT(!rob.empty() && id >= rob.front().id,
                    "pending load fell out of the ROB");
        RobEntry &e = rob[id - rob.front().id];
        // Dependent loads model pointer chasing: the next hop's address
        // comes from the previous load, so it cannot issue while any
        // load is outstanding.
        if (e.op == TraceOp::DependentLoad && lqOccupancy > 0)
            return;

        Request r;
        r.type = AccessType::Load;
        r.vaddr = e.vaddr;
        r.paddr = vmem->translate(e.vaddr, cpu);
        r.pc = e.pc;
        r.cpu = cpu;
        r.fillLevel = levelL1;
        r.requester = this;
        r.token = e.id;
        r.issueCycle = now();
        if (!l1d->sendRequest(r)) {
            issueBlockedOnL1d = true;
            return; // L1D read queue full; retry next cycle
        }
        e.issued = true;
        ++lqOccupancy;
        pendingLoadOffsets.pop_front();
        ++issued;
    }
}

void
Core::dispatch()
{
    if (!trace)
        return;
    if (now() < frontendStallUntil) {
        ++stat.frontendStallCycles;
        return;
    }
    for (uint32_t n = 0; n < cfg.fetchWidth; ++n) {
        if (rob.size() >= cfg.robSize) {
            ++stat.robFullCycles;
            return;
        }
        TraceRecord rec;
        if (!trace->next(rec)) {
            trace->reset();
            ++stat.traceReplays;
            if (!trace->next(rec))
                return; // empty trace
        }
        if (rec.op == TraceOp::Stall) {
            frontendStallUntil = now() + rec.stallCycles;
            return;
        }
        RobEntry e;
        e.id = nextInstrId++;
        e.op = rec.op;
        e.vaddr = rec.vaddr;
        e.pc = rec.pc;
        bool is_load = rec.op == TraceOp::Load
                       || rec.op == TraceOp::DependentLoad;
        e.done = !is_load;
        rob.push_back(e);
        if (is_load)
            pendingLoadOffsets.push_back(e.id);
    }
}

void
Core::catchUpStallCounters()
{
    Cycle t = now();
    if (t <= lastTickCycle + 1 || !trace)
        return; // no cycle skipped since the last tick

    // Skipped cycles u in [lastTickCycle+1, t-1]: the polled engine
    // would have run dispatch() on each with unchanged state, landing
    // in the frontend-stall branch while u < frontendStallUntil and
    // in the ROB-full branch otherwise (a sleeping core has no third
    // option: anything else would have made progress).
    uint64_t skipped = t - lastTickCycle - 1;
    uint64_t stalled = 0;
    if (frontendStallUntil > lastTickCycle + 1) {
        Cycle end = std::min(t, frontendStallUntil);
        stalled = end - (lastTickCycle + 1);
    }
    stat.frontendStallCycles += stalled;
    if (rob.size() >= cfg.robSize)
        stat.robFullCycles += skipped - stalled;
}

void
Core::tick()
{
    // Wake gate (see sim/wake_gate.hh): skip cycles proven unproductive
    // by the last tick's nextWakeCycle(). catchUpStallCounters()
    // keeps the per-cycle stall counters exact across the skips.
    if (!gate.due(now()))
        return;

    catchUpStallCounters();
    issueBlockedOnL1d = false;
    retire();
    issueLoads();
    dispatch();
    lastTickCycle = now();
    gate.tickDone(nextWakeCycle());
}

Cycle
Core::nextWakeCycle() const
{
    Cycle wake = kNeverWake;
    auto consider = [&wake](Cycle c) { wake = std::min(wake, c); };

    // A rejected L1D send retries next cycle: the queue drains on the
    // cache's own clock and nothing calls back when space frees.
    if (issueBlockedOnL1d)
        consider(now() + 1);

    if (!rob.empty()) {
        const RobEntry &head = rob.front();
        if (head.op == TraceOp::Store) {
            // (Stores carry done=true from dispatch, so this case
            // must come first.) Store retirement depends on L1D
            // acceptance, which the core cannot observe: poll. With
            // the SQ full it instead waits for a store completion,
            // which wakes the core.
            if (sqOccupancy < cfg.sqSize)
                consider(now() + 1);
        } else if (head.done) {
            consider(now() + 1); // retirement can proceed
        }
    }

    if (!pendingLoadOffsets.empty() && lqOccupancy < cfg.lqSize) {
        uint64_t id = pendingLoadOffsets.front();
        const RobEntry &e = rob[id - rob.front().id];
        // A dependent load with loads outstanding unblocks via a fill
        // (which wakes the core); anything else can try next cycle.
        if (!(e.op == TraceOp::DependentLoad && lqOccupancy > 0))
            consider(now() + 1);
    }

    if (trace && rob.size() < cfg.robSize) {
        // Dispatch resumes after any frontend stall. (With the ROB
        // full it instead waits on retirement, i.e. on a fill.)
        consider(std::max(now() + 1, frontendStallUntil));
    }

    return wake;
}

} // namespace gaze
