#include "sim/replacement.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace gaze
{

LruPolicy::LruPolicy(uint32_t sets, uint32_t ways)
    : numWays(ways), rank(size_t(sets) * ways)
{
    GAZE_ASSERT(ways >= 1 && ways <= 64,
                "LRU ranks are bytes and victim masks cap associativity "
                "at 64 ways, got ", ways);
    if (rank.empty())
        return; // zero sets: the cache's geometry check reports it
    for (uint32_t w = 0; w < ways; ++w)
        rank[w] = static_cast<uint8_t>(ways - 1 - w);
    // Every set starts alike: copy set 0 over the rest, doubling the
    // copied span, so the fill costs about what a memset would.
    for (size_t done = ways; done < rank.size(); done *= 2)
        std::copy_n(rank.begin(), std::min(done, rank.size() - done),
                    rank.begin() + done);
}

void
LruPolicy::touch(uint32_t set, uint32_t way)
{
    uint8_t *r = &rank[size_t(set) * numWays];
    uint8_t old = r[way];
    for (uint32_t w = 0; w < numWays; ++w)
        r[w] = static_cast<uint8_t>(r[w] + (r[w] < old));
    r[way] = 0;
}

void
LruPolicy::onHit(uint32_t set, uint32_t way)
{
    touch(set, way);
}

void
LruPolicy::onFill(uint32_t set, uint32_t way, bool /*prefetch*/)
{
    touch(set, way);
}

uint32_t
LruPolicy::victim(uint32_t set, uint64_t valid_mask)
{
    uint64_t all = numWays == 64 ? ~uint64_t(0)
                                 : (uint64_t(1) << numWays) - 1;
    if (uint64_t invalid = ~valid_mask & all)
        return static_cast<uint32_t>(std::countr_zero(invalid));
    const uint8_t *r = &rank[size_t(set) * numWays];
    for (uint32_t w = 0; w < numWays; ++w)
        if (r[w] == numWays - 1)
            return w;
    GAZE_PANIC("LRU ranks of set ", set, " are not a permutation");
}

SrripPolicy::SrripPolicy(uint32_t sets, uint32_t ways)
    : numWays(ways), rrpv(size_t(sets) * ways, maxRrpv)
{
}

void
SrripPolicy::onHit(uint32_t set, uint32_t way)
{
    rrpv[size_t(set) * numWays + way] = 0;
}

void
SrripPolicy::onFill(uint32_t set, uint32_t way, bool prefetch)
{
    // Demand fills: long re-reference (maxRrpv-1). Prefetch fills:
    // distant (maxRrpv) so useless prefetches leave quickly.
    rrpv[size_t(set) * numWays + way] = prefetch ? maxRrpv : maxRrpv - 1;
}

uint32_t
SrripPolicy::victim(uint32_t set, uint64_t valid_mask)
{
    for (uint32_t w = 0; w < numWays; ++w)
        if (!((valid_mask >> w) & 1))
            return w;
    while (true) {
        for (uint32_t w = 0; w < numWays; ++w)
            if (rrpv[size_t(set) * numWays + w] == maxRrpv)
                return w;
        for (uint32_t w = 0; w < numWays; ++w)
            ++rrpv[size_t(set) * numWays + w];
    }
}

RandomPolicy::RandomPolicy(uint32_t /*sets*/, uint32_t ways, uint64_t seed)
    : numWays(ways), rng(seed)
{
}

uint32_t
RandomPolicy::victim(uint32_t /*set*/, uint64_t valid_mask)
{
    for (uint32_t w = 0; w < numWays; ++w)
        if (!((valid_mask >> w) & 1))
            return w;
    return static_cast<uint32_t>(rng.below(numWays));
}

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const std::string &name, uint32_t sets, uint32_t ways)
{
    GAZE_ASSERT(ways >= 1 && ways <= 64,
                "cache needs at least one way (and victim masks cap "
                "associativity at 64), got ", ways);
    if (name == "lru")
        return std::make_unique<LruPolicy>(sets, ways);
    if (name == "srrip")
        return std::make_unique<SrripPolicy>(sets, ways);
    if (name == "random")
        return std::make_unique<RandomPolicy>(sets, ways);
    GAZE_FATAL("unknown replacement policy '", name, "' (known: ",
               knownReplacementPolicyList(), ")");
}

const std::vector<std::string> &
knownReplacementPolicies()
{
    static const std::vector<std::string> names = {"lru", "srrip",
                                                   "random"};
    return names;
}

bool
isKnownReplacementPolicy(const std::string &name)
{
    for (const auto &n : knownReplacementPolicies())
        if (n == name)
            return true;
    return false;
}

std::string
knownReplacementPolicyList()
{
    std::string out;
    for (const auto &n : knownReplacementPolicies()) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

} // namespace gaze
