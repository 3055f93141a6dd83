/**
 * @file
 * Synthetic graph workloads standing in for the Ligra and GAP traces.
 *
 * A deterministic power-law graph is laid out in CSR form at virtual
 * addresses, and the trace generators walk it the way the real
 * frameworks do:
 *
 *  - the offsets / frontier arrays are read sequentially (dense
 *    streaming regions, the §III-C motivating pattern);
 *  - neighbor lists are short sequential bursts at irregular starts;
 *  - per-vertex property reads (ranks, parents) are data-dependent
 *    irregular accesses to hot (power-law) vertices.
 *
 * Two phases per algorithm mirror the paper's Fig. 10 split: an
 * `init` phase (data preparation, almost pure streaming) and a
 * `compute` phase (interleaved streaming + irregular).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "sim/trace.hh"

namespace gaze
{

/**
 * CSR power-law graph at fixed virtual addresses whose adjacency is
 * drawn on first read.
 *
 * The graph is one RNG stream: per vertex, two draws pick its degree,
 * then one draw per edge picks an endpoint. Construction runs the
 * degree draws only, stepping the stream past each vertex's endpoints
 * with a bare next() and saving the stream state every
 * kCheckpointStride vertices, which fixes rowStart and every arena
 * base. neighborsOf(v) replays v's endpoints from its block's
 * checkpoint, sorts and memoizes them. Every vertex therefore reads
 * the same draws as a single eager pass over the stream, so traces do
 * not depend on which vertices a walk touches or in what order, while
 * a walk pays only for the adjacency it reads (a PageRank trace at
 * GAZE_SIM_SCALE=0.25 reads 2.4% of the vertices).
 */
class SyntheticGraph
{
  public:
    /** Draw the degrees of a deterministic power-law graph. */
    SyntheticGraph(uint64_t vertices, uint64_t seed);

    /** @p v's neighbor ids, ascending: drawn on first read, then kept. */
    std::span<const uint32_t> neighborsOf(uint64_t v);

    uint64_t numVertices = 0;
    std::vector<uint64_t> rowStart; ///< CSR offsets (numVertices + 1)

    Addr offsetsBase = 0;   ///< vaddr of the CSR offsets array
    Addr neighborsBase = 0; ///< vaddr of the neighbor array
    Addr propertyBase = 0;  ///< vaddr of the per-vertex property array
    Addr frontierBase = 0;  ///< vaddr of frontier scratch space

  private:
    /** Vertices per saved RNG state. */
    static constexpr uint64_t kCheckpointStride = 64;

    /** Stream state at vertex b * kCheckpointStride, per block b. */
    std::vector<Rng> checkpoints;
    /** CSR neighbor array; written only for drawn vertices. */
    std::unique_ptr<uint32_t[]> neighbors;
    std::vector<bool> drawn;
};

struct GraphTraceParams
{
    uint64_t seed = 1;
    uint64_t records = 1'000'000;
    uint64_t vertices = 1 << 18;
    uint32_t gapNonMem = 2;
};

/** PageRank-like: sequential vertex sweep + irregular rank gathers. */
VectorTrace genPageRank(const GraphTraceParams &p, bool init_phase);

/** BFS-like: frontier streaming + neighbor bursts + parent checks. */
VectorTrace genBfs(const GraphTraceParams &p, bool init_phase);

/** Triangle-counting-like: two-level neighbor intersection reads. */
VectorTrace genTriangle(const GraphTraceParams &p);

} // namespace gaze
