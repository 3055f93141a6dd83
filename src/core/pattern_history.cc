#include "core/pattern_history.hh"

namespace gaze
{

PatternHistoryTable::PatternHistoryTable(const GazeConfig &config)
    : cfg(config), table(config.phtSets, config.phtWays)
{
    GAZE_ASSERT(isPowerOfTwo(cfg.phtSets), "PHT sets not a power of two");
}

uint64_t
PatternHistoryTable::indexOf(const InitialAccesses &event) const
{
    return event.trigger() % cfg.phtSets;
}

uint64_t
PatternHistoryTable::tagOf(const InitialAccesses &event) const
{
    // The tag concatenates the offsets beyond the first (the paper's
    // second-offset tag when n == 2), plus any trigger bits that did
    // not fit in the index, so correctness is geometry-independent.
    uint64_t tag = event.trigger() / cfg.phtSets;
    uint32_t n = cfg.numInitialAccesses;
    for (uint32_t i = 1; i < n && i < event.offset.size(); ++i)
        tag = (tag << 12) | (uint64_t(event.offset[i]) + 1);
    return tag;
}

void
PatternHistoryTable::learn(const InitialAccesses &event,
                           const Bitset &footprint)
{
    table.insert(indexOf(event), tagOf(event), footprint);
}

const Bitset *
PatternHistoryTable::lookup(const InitialAccesses &event)
{
    return table.find(indexOf(event), tagOf(event));
}

size_t
PatternHistoryTable::occupancy() const
{
    return table.occupancy();
}

uint64_t
PatternHistoryTable::storageBits() const
{
    // Table I: per entry tag(6b) + LRU(2b) + bit vector.
    uint64_t per_entry = 6 + 2 + cfg.blocksPerRegion();
    return uint64_t(cfg.phtSets) * cfg.phtWays * per_entry;
}

StreamingDetector::StreamingDetector(const GazeConfig &config)
    : cfg(config), dpct(1, config.dpctEntries)
{
}

void
StreamingDetector::onDenseRegion(uint64_t hashed_pc)
{
    dpct.insert(0, hashed_pc, Empty{});
    dc.onDense();
}

void
StreamingDetector::onSparseRegion()
{
    dc.onSparse();
}

bool
StreamingDetector::isDensePc(uint64_t hashed_pc) const
{
    return dpct.contains(0, hashed_pc);
}

uint64_t
StreamingDetector::storageBits() const
{
    return uint64_t(cfg.dpctEntries) * (12 + 3) + 3;
}

} // namespace gaze
