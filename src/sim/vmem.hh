/**
 * @file
 * Functional virtual memory: a deterministic per-core vpage -> ppage
 * mapping. Translation latency is not modeled: the core has no TLB,
 * and what the compared prefetchers depend on is where pages land,
 * not what a page walk costs. The mapping exists so that
 *  - physical-address prefetchers cannot usefully cross 4KB boundaries
 *    (adjacent virtual pages land on unrelated physical pages), and
 *  - virtual-address prefetchers (vBerti, vGaze) legitimately can.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"

namespace gaze
{

/** Deterministic hash-based page table shared by all cores. */
class VirtualMemory
{
  public:
    /**
     * @param physical_bits size of the physical address space
     *        (default 34 = 16GB), bounding the ppage namespace.
     */
    explicit VirtualMemory(uint32_t physical_bits = 34);

    /** Translate a full virtual address for core @p cpu. */
    Addr translate(Addr vaddr, uint32_t cpu) const;

    /** Physical page number backing (cpu, vpage). */
    Addr pagePPN(Addr vpage, uint32_t cpu) const;

  private:
    uint64_t ppageMask;
};

} // namespace gaze
