#include "workloads/graph.hh"

#include <algorithm>

#include "common/log.hh"
#include "workloads/generators.hh"

namespace gaze
{
namespace
{

constexpr Addr graphArena = 0x2'0000'0000ULL;

/** Bytes per CSR offset entry / neighbor id / property value. */
constexpr uint64_t offsetBytes = 8;
constexpr uint64_t neighborBytes = 4;
constexpr uint64_t propertyBytes = 8;

/** Power-law-ish degree, two draws: most vertices small, a heavy head. */
uint64_t
drawDegree(Rng &rng)
{
    double u = rng.uniform();
    if (u < 0.01)
        return rng.range(64, 256); // hubs
    if (u < 0.2)
        return rng.range(8, 32);
    return rng.range(0, 8);
}

} // namespace

SyntheticGraph::SyntheticGraph(uint64_t vertices, uint64_t seed)
    : numVertices(vertices), rowStart(vertices + 1, 0),
      drawn(vertices, false)
{
    GAZE_ASSERT(vertices >= 16, "graph too small");
    Rng rng(seed);
    checkpoints.reserve((vertices + kCheckpointStride - 1)
                        / kCheckpointStride);
    for (uint64_t v = 0; v < vertices; ++v) {
        if (v % kCheckpointStride == 0)
            checkpoints.push_back(rng);
        uint64_t deg = drawDegree(rng);
        rowStart[v + 1] = rowStart[v] + deg;
        // One draw per endpoint, replayed by neighborsOf(v).
        for (uint64_t e = 0; e < deg; ++e)
            rng.next();
    }
    neighbors = std::make_unique_for_overwrite<uint32_t[]>(rowStart.back());

    offsetsBase = graphArena;
    neighborsBase = offsetsBase
                    + ((vertices + 1) * offsetBytes + pageSize)
                          / pageSize * pageSize;
    propertyBase = neighborsBase
                   + (rowStart.back() * neighborBytes + pageSize)
                         / pageSize * pageSize;
    frontierBase = propertyBase
                   + (vertices * propertyBytes + pageSize)
                         / pageSize * pageSize;
}

std::span<const uint32_t>
SyntheticGraph::neighborsOf(uint64_t v)
{
    GAZE_ASSERT(v < numVertices, "vertex ", v, " out of range");
    uint32_t *adj = neighbors.get() + rowStart[v];
    uint64_t deg = rowStart[v + 1] - rowStart[v];
    if (!drawn[v]) {
        drawn[v] = true;
        uint64_t first = v - v % kCheckpointStride;
        Rng rng = checkpoints[first / kCheckpointStride];
        // Each earlier vertex of the block drew two degree values and
        // one endpoint per edge; then come v's own two degree draws.
        uint64_t skip = 2 * (v - first) + (rowStart[v] - rowStart[first])
                        + 2;
        for (uint64_t i = 0; i < skip; ++i)
            rng.next();
        for (uint64_t e = 0; e < deg; ++e) {
            // Endpoints skewed towards low vertex ids (hot vertices).
            adj[e] = static_cast<uint32_t>(rng.skewed(numVertices, 1.2));
        }
        // CSR adjacency is sorted in practice; this is what gives
        // per-vertex property gathers their ascending spatial
        // regularity (and graph prefetching its opportunity).
        std::sort(adj, adj + deg);
    }
    return {adj, deg};
}

VectorTrace
genPageRank(const GraphTraceParams &p, bool init_phase)
{
    SyntheticGraph g(p.vertices, p.seed);
    TraceBuilder tb(p.records);
    Rng rng(p.seed * 3 + 1);

    if (init_phase) {
        // Data preparation: element-granular read-modify-write sweep
        // over the rank array (dense streaming). The wider gap keeps
        // it load-latency-bound rather than bus-bound.
        Addr cursor = 0;
        uint64_t span = g.numVertices * propertyBytes;
        while (tb.size() < p.records) {
            tb.load(0x900100, g.propertyBase + cursor);
            tb.store(0x900104, g.propertyBase + cursor);
            tb.nonMem(p.gapNonMem + 4, 0x900110);
            cursor += propertyBytes;
            if (cursor >= span)
                cursor = 0;
        }
        return tb.build();
    }

    // Compute phase: for each vertex, read its CSR slot (sequential),
    // then gather the ranks of its neighbors (irregular).
    uint64_t v = 0;
    while (tb.size() < p.records) {
        Addr off_addr = g.offsetsBase + v * offsetBytes;
        tb.load(0x900200, off_addr);
        uint64_t begin = g.rowStart[v];
        std::span<const uint32_t> adj = g.neighborsOf(v);
        for (uint64_t i = 0; i < adj.size() && tb.size() < p.records;
             ++i) {
            // Neighbor id load: sequential burst through the edge list.
            tb.load(0x900204,
                    g.neighborsBase + (begin + i) * neighborBytes);
            // Rank gather: irregular, hot-skewed.
            tb.load(0x900208,
                    g.propertyBase + Addr(adj[i]) * propertyBytes);
            tb.nonMem(p.gapNonMem, 0x900210);
        }
        // Accumulated rank write-back.
        tb.store(0x90020c, g.propertyBase + v * propertyBytes);
        v = (v + 1) % g.numVertices;
    }
    return tb.build();
}

VectorTrace
genBfs(const GraphTraceParams &p, bool init_phase)
{
    SyntheticGraph g(p.vertices, p.seed + 17);
    TraceBuilder tb(p.records);
    Rng rng(p.seed * 7 + 5);

    if (init_phase) {
        Addr cursor = 0;
        uint64_t span = g.numVertices * propertyBytes;
        while (tb.size() < p.records) {
            tb.load(0x910100, g.propertyBase + cursor);
            tb.store(0x910104, g.propertyBase + cursor); // parent=-1
            tb.nonMem(p.gapNonMem + 4, 0x910108);
            cursor += propertyBytes;
            if (cursor >= span)
                cursor = 0;
        }
        return tb.build();
    }

    // Compute: walk a frontier (dense streaming over scratch), and for
    // each frontier vertex visit its neighbors and check parents.
    uint64_t frontier_cursor = 0;
    while (tb.size() < p.records) {
        // Pop a frontier entry (element-granular sequential).
        tb.load(0x910200, g.frontierBase
                              + (frontier_cursor % (1 << 20)));
        frontier_cursor += 4; // 4B vertex ids
        // The vertex it names: skewed random.
        uint64_t v = rng.skewed(g.numVertices, 1.0);
        tb.load(0x910204, g.offsetsBase + v * offsetBytes);
        uint64_t begin = g.rowStart[v];
        std::span<const uint32_t> adj = g.neighborsOf(v);
        for (uint64_t i = 0; i < adj.size() && tb.size() < p.records;
             ++i) {
            tb.load(0x910208,
                    g.neighborsBase + (begin + i) * neighborBytes);
            uint32_t n = adj[i];
            // Parent check + conditional update.
            tb.load(0x91020c, g.propertyBase + Addr(n) * propertyBytes);
            if (rng.chance(0.3))
                tb.store(0x910210,
                         g.propertyBase + Addr(n) * propertyBytes);
            tb.nonMem(p.gapNonMem, 0x910218);
        }
    }
    return tb.build();
}

VectorTrace
genTriangle(const GraphTraceParams &p)
{
    SyntheticGraph g(p.vertices, p.seed + 41);
    TraceBuilder tb(p.records);
    Rng rng(p.seed * 11 + 3);

    uint64_t v = 0;
    while (tb.size() < p.records) {
        tb.load(0x920200, g.offsetsBase + v * offsetBytes);
        uint64_t begin = g.rowStart[v];
        std::span<const uint32_t> adj = g.neighborsOf(v);
        for (uint64_t i = 0; i < adj.size() && tb.size() < p.records;
             ++i) {
            tb.load(0x920204,
                    g.neighborsBase + (begin + i) * neighborBytes);
            uint32_t u = adj[i];
            // Intersect: scan the start of u's neighbor list too.
            uint64_t ub = g.rowStart[u];
            uint64_t ue = std::min(g.rowStart[u + 1], ub + 8);
            tb.load(0x920208, g.offsetsBase + Addr(u) * offsetBytes);
            for (uint64_t k = ub; k < ue && tb.size() < p.records; ++k)
                tb.load(0x92020c,
                        g.neighborsBase + k * neighborBytes);
            tb.nonMem(p.gapNonMem, 0x920210);
        }
        v = (v + 1) % g.numVertices;
    }
    return tb.build();
}

} // namespace gaze
