#include "workloads/graph.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"
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

} // namespace

SyntheticGraph
makeGraph(uint64_t vertices, double avg_degree, uint64_t seed)
{
    GAZE_ASSERT(vertices >= 16, "graph too small");
    SyntheticGraph g;
    g.numVertices = vertices;
    g.rowStart.resize(vertices + 1, 0);

    Rng rng(seed);
    uint64_t target_edges = static_cast<uint64_t>(vertices * avg_degree);
    g.neighbors.reserve(target_edges);

    // Power-law-ish degrees: most vertices small, a heavy head.
    for (uint64_t v = 0; v < vertices; ++v) {
        uint64_t deg;
        double u = rng.uniform();
        if (u < 0.01)
            deg = rng.range(64, 256); // hubs
        else if (u < 0.2)
            deg = rng.range(8, 32);
        else
            deg = rng.range(0, 8);
        g.rowStart[v + 1] = g.rowStart[v] + deg;
        for (uint64_t e = 0; e < deg; ++e) {
            // Endpoints skewed towards low vertex ids (hot vertices).
            uint64_t n = rng.skewed(vertices, 1.2);
            g.neighbors.push_back(static_cast<uint32_t>(n));
        }
        // CSR adjacency is sorted in practice; this is what gives
        // per-vertex property gathers their ascending spatial
        // regularity (and graph prefetching its opportunity).
        std::sort(g.neighbors.begin() + g.rowStart[v],
                  g.neighbors.end());
    }

    g.offsetsBase = graphArena;
    g.neighborsBase = g.offsetsBase
                      + ((vertices + 1) * offsetBytes + pageSize)
                            / pageSize * pageSize;
    g.propertyBase = g.neighborsBase
                     + (g.neighbors.size() * neighborBytes + pageSize)
                           / pageSize * pageSize;
    g.frontierBase = g.propertyBase
                     + (vertices * propertyBytes + pageSize)
                           / pageSize * pageSize;
    return g;
}

VectorTrace
genPageRank(const GraphTraceParams &p, bool init_phase)
{
    SyntheticGraph g = makeGraph(p.vertices, p.avgDegree, p.seed);
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
        uint64_t end = g.rowStart[v + 1];
        for (uint64_t e = begin; e < end && tb.size() < p.records; ++e) {
            // Neighbor id load: sequential burst through the edge list.
            tb.load(0x900204, g.neighborsBase + e * neighborBytes);
            // Rank gather: irregular, hot-skewed.
            uint32_t n = g.neighbors[e];
            tb.load(0x900208, g.propertyBase + Addr(n) * propertyBytes);
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
    SyntheticGraph g = makeGraph(p.vertices, p.avgDegree, p.seed + 17);
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
        uint64_t end = g.rowStart[v + 1];
        for (uint64_t e = begin; e < end && tb.size() < p.records; ++e) {
            tb.load(0x910208, g.neighborsBase + e * neighborBytes);
            uint32_t n = g.neighbors[e];
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
    SyntheticGraph g = makeGraph(p.vertices, p.avgDegree, p.seed + 41);
    TraceBuilder tb(p.records);
    Rng rng(p.seed * 11 + 3);

    uint64_t v = 0;
    while (tb.size() < p.records) {
        tb.load(0x920200, g.offsetsBase + v * offsetBytes);
        uint64_t begin = g.rowStart[v];
        uint64_t end = g.rowStart[v + 1];
        for (uint64_t e = begin; e < end && tb.size() < p.records; ++e) {
            tb.load(0x920204, g.neighborsBase + e * neighborBytes);
            uint32_t u = g.neighbors[e];
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
