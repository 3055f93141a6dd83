/**
 * @file
 * Trace record format consumed by the core model. The synthetic workload
 * generators in src/workloads produce these; the format deliberately
 * mirrors what matters in a ChampSim data-access trace: a PC, an optional
 * memory operand, and front-end stall events (standing in for branch
 * mispredictions / instruction misses, see DESIGN.md).
 *
 * Sources come in two flavors: the in-memory VectorTrace below (what
 * the generators emit) and the streaming FileTrace in
 * tracing/trace_io.hh, which replays a recorded .gzt file — both are
 * interchangeable behind TraceSource, and a recorded replay is
 * bit-identical to the generator run it was recorded from.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace gaze
{

/** Instruction class in a trace. */
enum class TraceOp : uint8_t
{
    NonMem,        ///< ALU-like instruction, completes immediately
    Load,          ///< demand load from vaddr
    DependentLoad, ///< load that cannot issue until prior loads finish
                   ///< (serializes pointer chasing)
    Store,         ///< store to vaddr (RFO at retire)
    Stall          ///< front-end stall (mispredict/L1I miss stand-in)
};

/** One trace record = one instruction. */
struct TraceRecord
{
    PC pc = 0;
    Addr vaddr = 0;
    TraceOp op = TraceOp::NonMem;
    uint16_t stallCycles = 0;

    /** Field-wise equality (record/replay round-trip checks). */
    bool
    operator==(const TraceRecord &o) const
    {
        return pc == o.pc && vaddr == o.vaddr && op == o.op
               && stallCycles == o.stallCycles;
    }

    bool operator!=(const TraceRecord &o) const { return !(*this == o); }
};

/**
 * Pull interface the core reads from. Implementations must support
 * reset() so a finished trace replays from the start (the paper replays
 * traces until every core has simulated enough instructions).
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Fetch the next record; false at end-of-trace. */
    virtual bool next(TraceRecord &out) = 0;

    /** Rewind to the beginning. */
    virtual void reset() = 0;
};

/**
 * Immutable trace records, shared by every cursor that replays them
 * (see workloads/trace_store.hh: one generation per workload serves
 * every job and core of a process).
 */
using TraceRecords = std::shared_ptr<const std::vector<TraceRecord>>;

/**
 * An in-memory trace (what the generators emit): a cursor over shared,
 * immutable records, so copying one or opening the same records for
 * another core costs a pointer copy, never the records.
 */
class VectorTrace : public TraceSource
{
  public:
    VectorTrace() : VectorTrace(std::vector<TraceRecord>{}) {}
    explicit VectorTrace(std::vector<TraceRecord> recs)
        : VectorTrace(std::make_shared<const std::vector<TraceRecord>>(
              std::move(recs)))
    {
    }
    explicit VectorTrace(TraceRecords recs)
        : records(std::move(recs)), base(records->data()),
          count(records->size())
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos >= count)
            return false;
        out = base[pos++];
        return true;
    }

    void reset() override { pos = 0; }

    size_t size() const { return count; }
    const std::vector<TraceRecord> &data() const { return *records; }

    /** The shared records this cursor reads. */
    const TraceRecords &shared() const { return records; }

  private:
    TraceRecords records;
    const TraceRecord *base;
    size_t count;
    size_t pos = 0;
};

} // namespace gaze
