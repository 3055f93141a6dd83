/**
 * @file
 * The wake gate every simulated component's tick opens with.
 *
 * A component (Core, Cache, Dram) keeps a *wake hint*: the earliest
 * cycle at which its tick could have any effect. Its tick returns at
 * the gate on every cycle before the hint, so those cycles cost a
 * compare, and the polled engine stays the reference loop that
 * considers every component every cycle. The auto engine uses the
 * same hints to skip: when every gate is closed at the clock, no tick
 * can act before the earliest hint, so it jumps the clock there. The
 * cycles it jumps are exactly those on which every polled tick would
 * have returned at its gate, which makes the two engines bit-identical
 * by construction.
 *
 * The component contract:
 *  - `void tick()` — one cycle of work. It opens with
 *    `if (!gate.due(now())) return;` and closes with
 *    `gate.tickDone(nextWakeCycle());`. System reads the gate itself
 *    and calls tick() only when it is open, counting those calls.
 *  - `Cycle nextWakeCycle() const` — earliest future cycle at which
 *    ticking could have any effect given current state (kNeverWake
 *    when only external input can create work). A component may also
 *    skip cycles whose only effects it replays before its state is
 *    next read or changed (Core::catchUpStallCounters, Dram::settle).
 *  - External inputs (sendRequest, recvFill, setTrace) call
 *    requestWake() on the target, so a sleeping component reopens its
 *    gate exactly when a tick could first do work again.
 */

#pragma once

#include "common/types.hh"

namespace gaze
{

/** "No wake needed": a component with nothing self-scheduled. */
inline constexpr Cycle kNeverWake = ~Cycle(0);

/** A component's wake hint and the tick entry gate it drives. */
class WakeGate
{
  public:
    /** True when ticking at @p now could do work. */
    bool due(Cycle now) const { return hint <= now; }

    /** End of a tick: the component's freshly computed next wake. */
    void tickDone(Cycle next) { hint = next; }

    /** The earliest cycle the gate opens (kNeverWake: never). */
    Cycle next() const { return hint; }

    /**
     * Open the gate at @p when or earlier. From inside the component's
     * own tick this is harmless: the closing tickDone() recomputes the
     * hint from full state.
     */
    void
    requestWake(Cycle when)
    {
        if (when < hint)
            hint = when;
    }

  private:
    Cycle hint = 0;
};

} // namespace gaze
