/**
 * @file
 * Shared fakes and helpers for the unit tests: a scriptable lower-level
 * memory device with fixed latency, a fill receiver that records
 * completions, an issue-capturing prefetcher wrapper, and a death-test
 * regex for one exact diagnostic.
 */

#pragma once

#include <cstring>
#include <queue>
#include <string>
#include <vector>

#include "sim/prefetcher.hh"
#include "sim/request.hh"

namespace gaze::test
{

/**
 * A perfect lower level: accepts everything (unless capped), responds
 * to reads/prefetches after a fixed latency, swallows writebacks.
 */
class FakeMemory : public MemoryDevice, public FillReceiver
{
  public:
    explicit FakeMemory(const Cycle *clock_, Cycle latency_ = 100)
        : clock(clock_), latency(latency_)
    {
    }

    bool
    sendRequest(const Request &req) override
    {
        received.push_back(req);
        if (req.type == AccessType::Writeback) {
            ++writebacks;
            return true;
        }
        if (rejectReads)
            return false;
        pending.push(Pending{*clock + latency, req});
        return true;
    }

    void
    tick() override
    {
        while (!pending.empty() && pending.front().ready <= *clock) {
            Request r = pending.front().req;
            pending.pop();
            if (r.requester)
                r.requester->recvFill(r);
        }
    }

    void recvFill(const Request &) override {}

    /** All requests ever received, in order. */
    std::vector<Request> received;
    uint64_t writebacks = 0;
    bool rejectReads = false;

  private:
    struct Pending
    {
        Cycle ready;
        Request req;
    };

    const Cycle *clock;
    Cycle latency;
    std::queue<Pending> pending;
};

/** Records completions delivered to it. */
class FakeReceiver : public FillReceiver
{
  public:
    void
    recvFill(const Request &req) override
    {
        fills.push_back(req);
    }

    std::vector<Request> fills;
};

/** One captured prefetch issue. */
struct IssuedPf
{
    Addr addr;
    uint32_t fillLevel;
    bool virt;
};

/**
 * Mixin capturing Prefetcher::issuePrefetch calls instead of needing a
 * cache. Use as: CapturingPrefetcher<GazePrefetcher> pf(config);
 */
template <typename Base>
class CapturingPrefetcher : public Base
{
  public:
    using Base::Base;

    bool
    issuePrefetch(Addr addr, uint32_t fill_level, bool virt) override
    {
        issued.push_back(IssuedPf{blockAlign(addr), fill_level, virt});
        return true;
    }

    /** Attach with a bare context (level defaults to L1). */
    void
    attachBare(uint32_t level = levelL1)
    {
        PrefetcherContext ctx;
        ctx.level = level;
        this->attach(ctx);
    }

    std::vector<IssuedPf> issued;
};

/** Drive a prefetcher with a synthetic demand load. */
inline DemandAccess
load(Addr vaddr, PC pc, bool hit = false, Cycle cycle = 0)
{
    DemandAccess a;
    a.vaddr = vaddr;
    a.paddr = vaddr; // identity mapping is fine for unit tests
    a.pc = pc;
    a.hit = hit;
    a.type = AccessType::Load;
    a.cycle = cycle;
    return a;
}

/** Run pf->tick() n times (drains prefetch buffers). */
template <typename Pf>
void
drain(Pf &pf, int n = 200)
{
    for (int i = 0; i < n; ++i)
        pf.tick();
}

/**
 * A death-test regex (POSIX extended) matching only the GAZE_FATAL
 * line that prints @p message word for word: "fatal: <message>
 * (<file>:<line>)".
 */
inline std::string
fatalRegex(const std::string &message)
{
    std::string re = "fatal: ";
    for (char c : message) {
        if (std::strchr("\\^$.|?*+()[]{}", c))
            re += '\\';
        re += c;
    }
    return re + " \\(";
}

} // namespace gaze::test
