/**
 * @file
 * Cache replacement policies. The paper's configuration uses LRU in all
 * caches; SRRIP and Random are provided for sensitivity studies and to
 * exercise the policy interface.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace gaze
{

/**
 * Replacement policy for one cache. The cache reports hits and fills;
 * the policy picks victims. Way state is kept inside the policy,
 * indexed by (set * ways + way).
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** A block in (set, way) was hit by a demand or prefetch access. */
    virtual void onHit(uint32_t set, uint32_t way) = 0;

    /** A block was filled into (set, way). @p prefetch for pf fills. */
    virtual void onFill(uint32_t set, uint32_t way, bool prefetch) = 0;

    /**
     * Choose a victim way in @p set. Bit w of @p valid_mask is set
     * when way w holds a valid block; invalid ways must be preferred.
     * (A mask, not a vector<bool>: the fill path builds it from a tag
     * scan without allocating. Caps associativity at 64 ways.)
     */
    virtual uint32_t victim(uint32_t set, uint64_t valid_mask) = 0;

    virtual std::string name() const = 0;
};

/**
 * True least-recently-used, kept as a per-set recency rank per way:
 * rank 0 is the MRU way, rank ways-1 the LRU way, and each set's ranks
 * are a permutation of 0..ways-1. One byte per way keeps even the
 * LLC's state small enough for the host's cache. Ways start ranked by
 * index, way 0 least recent, so a full set that was never touched
 * evicts its lowest way first.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    LruPolicy(uint32_t sets, uint32_t ways);

    void onHit(uint32_t set, uint32_t way) override;
    void onFill(uint32_t set, uint32_t way, bool prefetch) override;
    uint32_t victim(uint32_t set, uint64_t valid_mask) override;
    std::string name() const override { return "lru"; }

  private:
    /** Move @p way to rank 0, aging every way that was more recent. */
    void touch(uint32_t set, uint32_t way);

    uint32_t numWays;
    std::vector<uint8_t> rank;
};

/**
 * Static RRIP (SRRIP-HP): 2-bit re-reference interval prediction.
 * Prefetch fills are inserted with a distant prediction, which gives a
 * little built-in pollution resistance.
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    SrripPolicy(uint32_t sets, uint32_t ways);

    void onHit(uint32_t set, uint32_t way) override;
    void onFill(uint32_t set, uint32_t way, bool prefetch) override;
    uint32_t victim(uint32_t set, uint64_t valid_mask) override;
    std::string name() const override { return "srrip"; }

  private:
    static constexpr uint8_t maxRrpv = 3;
    uint32_t numWays;
    std::vector<uint8_t> rrpv;
};

/** Uniform-random victim selection (deterministic seed). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(uint32_t sets, uint32_t ways, uint64_t seed = 0xdead);

    void onHit(uint32_t /*set*/, uint32_t /*way*/) override {}
    void onFill(uint32_t /*set*/, uint32_t /*way*/,
                bool /*prefetch*/) override
    {
    }
    uint32_t victim(uint32_t set, uint64_t valid_mask) override;
    std::string name() const override { return "random"; }

  private:
    uint32_t numWays;
    Rng rng;
};

/** Factory: "lru" | "srrip" | "random". */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const std::string &name, uint32_t sets, uint32_t ways);

/** Every name makeReplacementPolicy accepts, in listing order. */
const std::vector<std::string> &knownReplacementPolicies();

/** True when @p name names a registered policy. */
bool isKnownReplacementPolicy(const std::string &name);

/** "lru, srrip, random" — for diagnostics naming the alternatives. */
std::string knownReplacementPolicyList();

} // namespace gaze
