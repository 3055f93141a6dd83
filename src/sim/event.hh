/**
 * @file
 * The event-driven simulation engine: a timing-wheel scheduler with an
 * overflow heap, the per-component tick events that drive Core, Cache
 * and Dram, and the free-list Request pool.
 *
 * The engine exists to make idle cycles free. The polled engine ticks
 * every component every cycle whether or not anything is in flight; an
 * event-driven System instead schedules each component's next useful
 * tick and advances the clock directly to the earliest scheduled
 * cycle, skipping quiescent stretches in O(1). A component is ticked
 * on exactly the cycles where its polled tick() could have had any
 * effect (each component's nextWakeCycle() is conservative, and
 * external inputs — sendRequest/recvFill — wake the target), and
 * same-cycle events dispatch in a fixed (priority, schedule-order)
 * order that reproduces the polled tickAll() sequence. The two engines
 * are therefore metrics-bit-identical; test_engine asserts it.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace gaze
{

/** "No wake needed": a component with nothing self-scheduled. */
inline constexpr Cycle kNeverWake = ~Cycle(0);

class EventQueue;

/**
 * One schedulable unit of work. Events are owned by their components
 * (gem5-style intrusive scheduling); the queue never allocates or
 * frees them. An event may be scheduled for at most one cycle at a
 * time; rescheduling to an earlier cycle supersedes the old entry
 * (which the queue drops lazily when it surfaces).
 */
class Event
{
  public:
    explicit Event(int priority_ = 0) : prio(priority_) {}
    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Run the event. Called with the queue's cycle == when(). */
    virtual void process() = 0;

    bool scheduled() const { return isScheduled; }
    Cycle when() const { return whenCycle; }
    int priority() const { return prio; }
    void setPriority(int p) { prio = p; }

  private:
    friend class EventQueue;

    int prio;
    Cycle whenCycle = 0;
    Cycle lastRun = kNeverWake; ///< cycle of the latest dispatch
    uint64_t token = 0;         ///< matches the live queue entry
    bool isScheduled = false;
};

/** Aggregate scheduler counters (bench_engine / --engine-stats). */
struct EventQueueStats
{
    uint64_t scheduled = 0;  ///< schedule() calls that enqueued
    uint64_t dispatched = 0; ///< events actually processed
    uint64_t staleDropped = 0; ///< superseded entries dropped lazily
    uint64_t heapSpills = 0;   ///< entries beyond the wheel horizon
};

/**
 * The scheduler: a timing wheel of `wheelSize` one-cycle buckets for
 * the near future plus a min-heap for events beyond the horizon.
 *
 * Ordering guarantee: within one cycle, events dispatch by ascending
 * (priority, schedule order); across cycles, strictly by cycle. This
 * is what makes an event-driven System deterministic and bit-identical
 * to the polled engine (components get tickAll()'s fixed order via
 * their priorities).
 *
 * Events scheduled *for the cycle currently dispatching* (by an
 * earlier event of that cycle) are dispatched within the same cycle,
 * in order — this is how a core's sendRequest at cycle T wakes a
 * sleeping L1D in time for its cycle-T tick, exactly as the polled
 * engine's fixed tick order would have.
 */
class EventQueue
{
  public:
    static constexpr Cycle kNoEvent = kNeverWake;

    /** @param wheel_size span of the timing wheel (power of two). */
    explicit EventQueue(uint32_t wheel_size = 1024);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p ev for @p when. The event must not already be
     * scheduled. @p when must not lie in the past (before the cycle
     * being dispatched / the wheel base).
     */
    void schedule(Event *ev, Cycle when);

    /**
     * Ensure @p ev runs no later than @p when: schedules it, or pulls
     * an already-scheduled event earlier. No-op when it is already
     * scheduled at or before @p when.
     */
    void scheduleEarlier(Event *ev, Cycle when);

    /** Drop a scheduled event (lazy: the queue entry expires). */
    void deschedule(Event *ev);

    /**
     * Earliest cycle with a (possibly superseded) entry; kNoEvent when
     * nothing is scheduled. May name a cycle holding only stale
     * entries — dispatching it is then a no-op, never an error.
     */
    Cycle nextEventCycle() const;

    /**
     * Dispatch every live event scheduled for @p cycle in (priority,
     * schedule order) and return how many ran. @p cycle must be the
     * value nextEventCycle() returned (>= the wheel base).
     */
    size_t dispatchCycle(Cycle cycle);

    /** The cycle currently dispatching (valid inside process()). */
    Cycle currentCycle() const { return curCycle; }

    bool dispatching() const { return inDispatch; }

    /**
     * Suspend scheduling: schedule()/scheduleEarlier() become no-ops
     * until resume(). The auto engine parks the queue like this during
     * its polled stints so the per-cycle wake-up traffic of a dense
     * workload costs nothing; existing entries stay put (possibly
     * going stale) and a System::scheduleAll() after resume() re-arms
     * every component via bootstrapWake, which forwards or supersedes
     * anything stranded in the past.
     */
    void
    suspend()
    {
        GAZE_ASSERT(!inDispatch, "cannot suspend mid-dispatch");
        isSuspended = true;
    }

    void
    resume()
    {
        GAZE_ASSERT(!inDispatch, "cannot resume mid-dispatch");
        isSuspended = false;
    }

    bool suspended() const { return isSuspended; }

    /** Live scheduled events (excludes superseded entries). */
    size_t size() const { return numScheduled; }
    bool empty() const { return numScheduled == 0; }

    const EventQueueStats &stats() const { return stat; }

  private:
    struct Entry
    {
        Cycle when;
        int prio;
        uint64_t token;
        Event *ev;
    };

    struct EntryLater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.token > b.token; // tokens grow in schedule order
        }
    };

    bool
    live(const Entry &e) const
    {
        return e.ev->isScheduled && e.ev->token == e.token;
    }

    size_t bucketOf(Cycle when) const { return when & (wheelSize - 1); }
    void insert(const Entry &e);
    void refillFromHeap();
    void setBit(size_t bucket);
    void clearBit(size_t bucket);

    uint32_t wheelSize;
    Cycle wheelBase = 0; ///< earliest cycle the wheel can hold

    std::vector<std::vector<Entry>> wheel;
    std::vector<uint64_t> occupied; ///< bitmap over wheel buckets

    std::priority_queue<Entry, std::vector<Entry>, EntryLater> overflow;

    uint64_t nextToken = 1;
    size_t numScheduled = 0;
    Cycle curCycle = 0;
    bool inDispatch = false;
    bool isSuspended = false;

    /** Scratch list dispatchCycle() drains each bucket into. */
    std::vector<Entry> batch;

    EventQueueStats stat;
};

/**
 * The tick event of one simulated component. A component owns its
 * TickEvent; System binds it to the queue with the component's
 * tickAll() position as its priority. Unbound (polled engine, unit
 * tests that tick by hand), every method is a no-op, so components
 * carry their wake-up calls unconditionally.
 *
 * The component contract:
 *  - `void tick()` — one cycle of work, identical to the polled tick.
 *    It opens with `if (!sched.due(now())) return;` and closes with
 *    `sched.tickDone(nextWakeCycle())`.
 *  - `Cycle nextWakeCycle() const` — earliest future cycle at which
 *    ticking could have any effect given current state (kNeverWake
 *    when only external input can create work). A component may also
 *    skip cycles whose only effects it replays before its state is
 *    next read or changed (Dram::settle()).
 * External inputs (sendRequest, recvFill) call requestWake() on the
 * target so a sleeping component is woken exactly when the polled
 * engine would first have ticked it to any effect.
 *
 * The event also carries the component's *wake hint* — the cycle its
 * last tick promised as the next possibly-productive one, lowered by
 * every requestWake. This is what lets the polled engine share the
 * event engine's idle-skipping proof without a queue: a tick whose
 * entry gate sees hint > now is exactly a cycle the event engine would
 * never have dispatched, so returning without work preserves
 * bit-identical metrics. The hint is maintained unbound too (the
 * polled engine never binds), which is why due()/
 * tickDone()/requestWake() do their bookkeeping before any queue
 * check.
 */
template <typename Component>
class TickEvent : public Event
{
  public:
    TickEvent() = default;

    void
    bind(EventQueue *q, Component *c, int priority_)
    {
        GAZE_ASSERT(q && c, "tick event needs a queue and a component");
        queue = q;
        comp = c;
        setPriority(priority_);
    }

    bool bound() const { return queue != nullptr; }

    /**
     * Entry gate for the component's tick: true when ticking at
     * @p now_cycle could do work. The polled engine calls tick()
     * every cycle; this turns the no-op ones into a two-load compare.
     */
    bool due(Cycle now_cycle) const { return wakeHint <= now_cycle; }

    /**
     * End-of-tick bookkeeping: record the component's freshly
     * computed nextWakeCycle() as the hint the gate tests next.
     */
    void tickDone(Cycle next) { wakeHint = next; }

    /** The current hint (diagnostics / engine bookkeeping). */
    Cycle hint() const { return wakeHint; }

    /**
     * Ensure the component ticks at @p when or earlier. Lowers the
     * wake hint (except from inside the component's own tick, whose
     * closing tickDone() recomputes the hint from full state anyway)
     * and, when bound, pulls the queue entry earlier.
     */
    void
    requestWake(Cycle when)
    {
        if (inTick) {
            if (when <= tickCycle)
                return;
            if (queue)
                queue->scheduleEarlier(this, when);
            return;
        }
        if (when < wakeHint)
            wakeHint = when;
        if (queue)
            queue->scheduleEarlier(this, when);
    }

    /**
     * Run-start (re)arming: guarantee a tick at @p when. Unlike
     * requestWake this also forwards an entry stranded in the past by
     * a cycle-cap jump (the wedge safety valve), so a follow-up run
     * always starts from a clean schedule.
     */
    void
    bootstrapWake(Cycle when)
    {
        if (!queue)
            return;
        if (scheduled() && this->when() < when)
            queue->deschedule(this);
        queue->scheduleEarlier(this, when);
    }

    void
    process() override
    {
        inTick = true;
        tickCycle = queue->currentCycle();
        comp->tick();
        inTick = false;
        // tick() left its nextWakeCycle() in the hint (or, when the
        // gate skipped a bootstrapWake dispatch, the hint is the
        // still-future cycle to resume at). Either way it is the
        // reschedule target, saving a second nextWakeCycle() walk.
        if (wakeHint != kNeverWake)
            queue->scheduleEarlier(this, wakeHint);
    }

  private:
    EventQueue *queue = nullptr;
    Component *comp = nullptr;
    Cycle tickCycle = 0;
    Cycle wakeHint = 0; ///< earliest possibly-productive tick cycle
    bool inTick = false;
};

} // namespace gaze
