/**
 * @file
 * Workload generator tests: determinism, structural properties of each
 * archetype (streaming density, template order consistency, pointer-
 * chase serialization, hazard mix), the graph builder, and the suite
 * registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "workloads/generators.hh"
#include "workloads/graph.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

/** Collect the distinct-block access order per 4KB page. */
std::map<Addr, std::vector<uint32_t>>
pageAccessOrders(const VectorTrace &t)
{
    std::map<Addr, std::vector<uint32_t>> orders;
    std::map<Addr, std::set<uint32_t>> seen;
    for (const auto &r : t.data()) {
        if (r.op == TraceOp::NonMem || r.op == TraceOp::Stall)
            continue;
        Addr page = pageNumber(r.vaddr);
        uint32_t off = regionOffset(r.vaddr);
        if (seen[page].insert(off).second)
            orders[page].push_back(off);
    }
    return orders;
}

double
memFraction(const VectorTrace &t)
{
    size_t mem = 0;
    for (const auto &r : t.data())
        mem += r.op == TraceOp::Load || r.op == TraceOp::Store
               || r.op == TraceOp::DependentLoad;
    return double(mem) / double(t.size());
}

TEST(Generators, StreamIsDeterministic)
{
    StreamParams p;
    p.records = 50000;
    VectorTrace a = genStream(p);
    VectorTrace b = genStream(p);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.data()[i].vaddr, b.data()[i].vaddr);
        EXPECT_EQ(a.data()[i].pc, b.data()[i].pc);
    }
}

TEST(Generators, DifferentSeedsDiffer)
{
    StreamParams p1, p2;
    p1.records = p2.records = 20000;
    p1.seed = 1;
    p2.seed = 2;
    VectorTrace a = genStream(p1);
    VectorTrace b = genStream(p2);
    bool differ = false;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i)
        differ |= a.data()[i].vaddr != b.data()[i].vaddr;
    EXPECT_TRUE(differ);
}

TEST(Generators, StreamPagesAreDenseAndInOrder)
{
    StreamParams p;
    p.records = 200000;
    p.streams = 1;
    VectorTrace t = genStream(p);
    auto orders = pageAccessOrders(t);
    ASSERT_GT(orders.size(), 3u);
    size_t full = 0;
    for (const auto &[page, order] : orders) {
        if (order.size() == blocksPerPage) {
            ++full;
            // Offsets visited strictly ascending: the streaming-case
            // (trigger 0, second 1) the paper's §III-C keys on.
            for (size_t i = 0; i < order.size(); ++i)
                EXPECT_EQ(order[i], i);
        }
    }
    EXPECT_GT(full, 2u);
}

TEST(Generators, StreamElementGranularityGivesReuse)
{
    StreamParams p;
    p.records = 50000;
    p.streams = 1;
    p.elemBytes = 8;
    VectorTrace t = genStream(p);
    // 8 consecutive accesses per block -> mem accesses greatly exceed
    // distinct blocks.
    std::set<Addr> blocks;
    size_t mem = 0;
    for (const auto &r : t.data()) {
        if (r.op == TraceOp::Load || r.op == TraceOp::Store) {
            ++mem;
            blocks.insert(blockNumber(r.vaddr));
        }
    }
    EXPECT_GT(mem, blocks.size() * 6);
}

TEST(Generators, StridedStreamSkipsBlocks)
{
    StreamParams p;
    p.records = 100000;
    p.streams = 1;
    p.strideBlocks = 4;
    VectorTrace t = genStream(p);
    auto orders = pageAccessOrders(t);
    for (const auto &[page, order] : orders) {
        if (order.size() < 8)
            continue;
        for (size_t i = 1; i < order.size(); ++i)
            EXPECT_EQ((order[i] - order[i - 1]) % 4, 0u);
    }
}

TEST(Generators, StoresAppearAtRequestedFraction)
{
    StreamParams p;
    p.records = 100000;
    p.storeFraction = 0.4;
    VectorTrace t = genStream(p);
    size_t loads = 0, stores = 0;
    for (const auto &r : t.data()) {
        loads += r.op == TraceOp::Load;
        stores += r.op == TraceOp::Store;
    }
    double frac = double(stores) / double(loads + stores);
    EXPECT_NEAR(frac, 0.4, 0.05);
}

TEST(Generators, TemplatesReplayConsistentOrder)
{
    TemplateParams p;
    p.records = 300000;
    p.numTemplates = 4;
    p.conflictDegree = 2;
    p.blocksPerTemplate = 6;
    p.revisitFraction = 0.0; // fresh pages: template per page
    p.jitter = 0.0;
    VectorTrace t = genTemplates(p);
    auto orders = pageAccessOrders(t);

    // Every completed page's order must equal one of <=4 sequences.
    std::set<std::vector<uint32_t>> distinct;
    for (const auto &[page, order] : orders)
        if (order.size() == p.blocksPerTemplate)
            distinct.insert(order);
    EXPECT_LE(distinct.size(), 4u);
    EXPECT_GE(distinct.size(), 2u);
}

TEST(Generators, ConflictingTemplatesShareTriggerDifferInSecond)
{
    TemplateParams p;
    p.records = 300000;
    p.numTemplates = 4;
    p.conflictDegree = 4; // all four share one trigger
    p.blocksPerTemplate = 6;
    p.revisitFraction = 0.0;
    VectorTrace t = genTemplates(p);
    auto orders = pageAccessOrders(t);

    std::set<uint32_t> triggers, seconds;
    for (const auto &[page, order] : orders) {
        if (order.size() != p.blocksPerTemplate)
            continue;
        triggers.insert(order[0]);
        seconds.insert(order[1]);
    }
    EXPECT_EQ(triggers.size(), 1u); // the Fig. 2 conflict
    EXPECT_GE(seconds.size(), 3u);  // disambiguated by the 2nd access
}

TEST(Generators, TemplateRevisitKeepsPageBinding)
{
    TemplateParams p;
    p.records = 400000;
    p.numTemplates = 6;
    p.blocksPerTemplate = 6;
    p.revisitFraction = 1.0; // only pool pages
    p.numPages = 64;
    p.concurrentRegions = 1;  // serial generations
    p.accessesPerBlock = 1;   // one access per block: exact replay
    VectorTrace t = genTemplates(p);

    // Group distinct-block sequences per page per generation: every
    // generation of one page must use the same template (same first
    // two offsets).
    std::map<Addr, std::set<std::pair<uint32_t, uint32_t>>> firstTwo;
    std::map<Addr, std::vector<uint32_t>> current;
    std::map<Addr, std::set<uint32_t>> seen;
    for (const auto &r : t.data()) {
        if (r.op != TraceOp::Load)
            continue;
        Addr page = pageNumber(r.vaddr);
        uint32_t off = regionOffset(r.vaddr);
        if (!seen[page].insert(off).second)
            continue;
        current[page].push_back(off);
        if (current[page].size() == 6) { // blocksPerTemplate default..
            firstTwo[page].insert({current[page][0], current[page][1]});
            current[page].clear();
            seen[page].clear();
        }
    }
    size_t consistent = 0, total = 0;
    for (const auto &[page, set] : firstTwo) {
        ++total;
        consistent += set.size() == 1;
    }
    EXPECT_GT(total, 10u);
    EXPECT_GT(double(consistent) / total, 0.9);
}

TEST(Generators, PointerChaseIsDependentAndIrregular)
{
    ChaseParams p;
    p.records = 100000;
    p.noiseFraction = 0.0;
    VectorTrace t = genPointerChase(p);
    size_t dep = 0, mem = 0;
    std::set<Addr> blocks;
    for (const auto &r : t.data()) {
        if (r.op == TraceOp::DependentLoad) {
            ++dep;
            ++mem;
            blocks.insert(blockNumber(r.vaddr));
        } else if (r.op == TraceOp::Load) {
            ++mem;
        }
    }
    EXPECT_EQ(dep, mem); // all chase loads are dependent
    // A permutation cycle: nearly every access hits a fresh block.
    EXPECT_GT(blocks.size(), dep * 9 / 10);
}

TEST(Generators, ServerTraceHasStallsAndLightMemory)
{
    ServerParams p;
    p.records = 100000;
    VectorTrace t = genServer(p);
    size_t stalls = 0;
    for (const auto &r : t.data())
        stalls += r.op == TraceOp::Stall;
    EXPECT_GT(stalls, 50u);
    EXPECT_LT(memFraction(t), 0.2); // instruction-bound
}

TEST(Generators, HazardMixesDenseAndSparse)
{
    StreamHazardParams p;
    p.records = 400000;
    p.denseFraction = 0.5;
    VectorTrace t = genStreamHazard(p);
    auto orders = pageAccessOrders(t);
    size_t dense = 0, sparse = 0;
    for (const auto &[page, order] : orders) {
        if (order.size() >= blocksPerPage)
            ++dense;
        else if (order.size() <= p.sparseBlocks)
            ++sparse;
    }
    EXPECT_GT(dense, 5u);
    EXPECT_GT(sparse, 5u);
}

TEST(Generators, HazardLookalikesStartAtZero)
{
    StreamHazardParams p;
    p.records = 300000;
    p.denseFraction = 0.3;
    p.sparseLookalike = 1.0; // every sparse region is a lookalike
    VectorTrace t = genStreamHazard(p);
    auto orders = pageAccessOrders(t);
    for (const auto &[page, order] : orders) {
        if (order.size() >= 2)
            EXPECT_EQ(order[0], 0u) << "page " << page;
    }
}

// ---------------------------------------------------------------- graph

/**
 * The eager builder the lazy graph replaced, kept as its reference: one
 * RNG stream, each vertex's two degree draws then one draw per
 * endpoint, each list sorted, and the arena laid out after it.
 */
struct EagerGraph
{
    std::vector<uint64_t> rowStart;
    std::vector<uint32_t> neighbors;
    Addr offsetsBase = 0;
    Addr neighborsBase = 0;
    Addr propertyBase = 0;
    Addr frontierBase = 0;
};

EagerGraph
makeEagerGraph(uint64_t vertices, uint64_t seed)
{
    EagerGraph g;
    g.rowStart.resize(vertices + 1, 0);
    Rng rng(seed);
    for (uint64_t v = 0; v < vertices; ++v) {
        uint64_t deg;
        double u = rng.uniform();
        if (u < 0.01)
            deg = rng.range(64, 256);
        else if (u < 0.2)
            deg = rng.range(8, 32);
        else
            deg = rng.range(0, 8);
        g.rowStart[v + 1] = g.rowStart[v] + deg;
        for (uint64_t e = 0; e < deg; ++e)
            g.neighbors.push_back(
                static_cast<uint32_t>(rng.skewed(vertices, 1.2)));
        std::sort(g.neighbors.begin() + g.rowStart[v], g.neighbors.end());
    }
    auto pages = [](uint64_t bytes) {
        return (bytes + pageSize) / pageSize * pageSize;
    };
    g.offsetsBase = 0x2'0000'0000ULL;
    g.neighborsBase = g.offsetsBase + pages((vertices + 1) * 8);
    g.propertyBase = g.neighborsBase + pages(g.neighbors.size() * 4);
    g.frontierBase = g.propertyBase + pages(vertices * 8);
    return g;
}

TEST(Graph, LazyAdjacencyEqualsTheEagerGraph)
{
    // Two registry graphs (1 << 17 vertices, the seeds of PageRank-1
    // and of BFS-17, whose generator adds 17 to 304) and two small
    // ones: 64-vertex blocks with a partial last one, and one block.
    const std::pair<uint64_t, uint64_t> cases[] = {
        {1 << 17, 301}, {1 << 17, 321}, {1000, 7}, {40, 3}};
    for (auto [vertices, seed] : cases) {
        SCOPED_TRACE("vertices " + std::to_string(vertices) + " seed "
                     + std::to_string(seed));
        EagerGraph want = makeEagerGraph(vertices, seed);
        SyntheticGraph g(vertices, seed);
        ASSERT_EQ(g.numVertices, vertices);
        ASSERT_EQ(g.rowStart, want.rowStart);
        EXPECT_EQ(g.offsetsBase, want.offsetsBase);
        EXPECT_EQ(g.neighborsBase, want.neighborsBase);
        EXPECT_EQ(g.propertyBase, want.propertyBase);
        EXPECT_EQ(g.frontierBase, want.frontierBase);

        // Read every vertex in shuffled order, so each replay starts
        // from a block whose earlier vertices may be undrawn.
        std::vector<uint64_t> order(vertices);
        for (uint64_t v = 0; v < vertices; ++v)
            order[v] = v;
        Rng shuffle(seed ^ 0x5eed);
        for (uint64_t i = vertices - 1; i > 0; --i)
            std::swap(order[i], order[shuffle.below(i + 1)]);
        size_t wrong = 0;
        for (uint64_t v : order) {
            std::span<const uint32_t> adj = g.neighborsOf(v);
            auto first = want.neighbors.begin() + want.rowStart[v];
            auto last = want.neighbors.begin() + want.rowStart[v + 1];
            if (std::equal(adj.begin(), adj.end(), first, last))
                continue;
            if (++wrong <= 3)
                ADD_FAILURE() << "vertex " << v << " adjacency differs";
        }
        EXPECT_EQ(wrong, 0u);
    }
}

TEST(Graph, CsrIsConsistent)
{
    SyntheticGraph g(1 << 12, 7);
    ASSERT_EQ(g.rowStart.size(), g.numVertices + 1);
    for (uint64_t v = 0; v < g.numVertices; ++v) {
        std::span<const uint32_t> adj = g.neighborsOf(v);
        EXPECT_EQ(adj.size(), g.rowStart[v + 1] - g.rowStart[v]);
        EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
        for (uint32_t n : adj)
            EXPECT_LT(n, g.numVertices);
    }
    // Arena layout must not overlap.
    EXPECT_GT(g.neighborsBase, g.offsetsBase);
    EXPECT_GE(g.propertyBase - g.neighborsBase,
              g.rowStart.back() * sizeof(uint32_t));
    EXPECT_GT(g.frontierBase, g.propertyBase);
}

TEST(Graph, DeterministicBySeed)
{
    SyntheticGraph a(1 << 10, 3);
    SyntheticGraph b(1 << 10, 3);
    ASSERT_EQ(a.rowStart, b.rowStart);
    // a is read forwards and b backwards: the order of first reads
    // changes nothing, and a second read returns the first.
    for (uint64_t v = 0; v < a.numVertices; ++v)
        a.neighborsOf(v);
    for (uint64_t v = b.numVertices; v-- > 0;) {
        std::span<const uint32_t> x = b.neighborsOf(v);
        std::span<const uint32_t> y = a.neighborsOf(v);
        EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
            << "vertex " << v;
    }
}

TEST(Graph, InitPhaseIsStreamingHeavy)
{
    GraphTraceParams p;
    p.records = 100000;
    p.vertices = 1 << 12;
    VectorTrace t = genPageRank(p, /*init=*/true);
    auto orders = pageAccessOrders(t);
    // Ascending block-ordered pages dominate the init phase.
    size_t ordered = 0, considered = 0;
    for (const auto &[page, order] : orders) {
        if (order.size() < 8)
            continue;
        ++considered;
        bool asc = true;
        for (size_t i = 1; i < order.size(); ++i)
            asc &= order[i] > order[i - 1];
        ordered += asc;
    }
    ASSERT_GT(considered, 0u);
    EXPECT_GT(double(ordered) / considered, 0.9);
}

TEST(Graph, ComputePhaseMixesIrregular)
{
    GraphTraceParams p;
    p.records = 100000;
    p.vertices = 1 << 16; // property array spans many pages
    VectorTrace t = genBfs(p, /*init=*/false);
    // Property gathers are scattered: a sizable share of pages is
    // touched only sparsely (the irregular component).
    auto orders = pageAccessOrders(t);
    size_t sparse_pages = 0;
    for (const auto &[page, order] : orders)
        sparse_pages += order.size() <= 8;
    ASSERT_GT(orders.size(), 0u);
    EXPECT_GT(double(sparse_pages) / orders.size(), 0.10);
}

// --------------------------------------------------------------- suites

TEST(Suites, RegistryIsComplete)
{
    EXPECT_GE(allWorkloads().size(), 40u);
    for (const auto &s : mainSuites())
        EXPECT_GE(suiteWorkloads(s).size(), 4u) << s;
    EXPECT_GE(suiteWorkloads("gap").size(), 6u);
    EXPECT_GE(suiteWorkloads("qmm").size(), 6u);
}

TEST(Suites, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
}

TEST(Suites, FindWorkloadByName)
{
    const WorkloadDef &w = findWorkload("fotonik3d_s");
    EXPECT_EQ(w.suite, "spec17");
    VectorTrace t = w.make();
    EXPECT_GT(t.size(), 1000u);
}

TEST(Suites, EveryWorkloadGeneratesMemoryTraffic)
{
    for (const auto &w : allWorkloads()) {
        VectorTrace t = w.make();
        ASSERT_GT(t.size(), 1000u) << w.name;
        double frac = memFraction(t);
        EXPECT_GT(frac, 0.03) << w.name;
        EXPECT_LT(frac, 0.8) << w.name;
    }
}

TEST(SuitesDeath, UnknownNamesAreFatal)
{
    EXPECT_DEATH((void)findWorkload("no-such-trace"), "unknown workload");
    EXPECT_DEATH((void)suiteWorkloads("no-such-suite"), "unknown suite");
}

// --------------------------------------------------- suite shapes

TEST(SuiteShapes, CloudTracesCarryTriggerConflicts)
{
    // The cloud stand-ins must exhibit the Fig. 2 property: several
    // distinct second offsets behind one shared trigger offset.
    VectorTrace t = findWorkload("cassandra-p0c0").make();
    auto orders = pageAccessOrders(t);
    std::map<uint32_t, std::set<uint32_t>> seconds_by_trigger;
    for (const auto &[page, order] : orders)
        if (order.size() >= 4)
            seconds_by_trigger[order[0]].insert(order[1]);
    size_t conflicted = 0;
    for (const auto &[trig, seconds] : seconds_by_trigger)
        conflicted += seconds.size() >= 3;
    EXPECT_GE(conflicted, 3u);
}

TEST(SuiteShapes, QmmServerIsFrontendBound)
{
    VectorTrace t = findWorkload("srv.09").make();
    size_t stalls = 0;
    for (const auto &r : t.data())
        stalls += r.op == TraceOp::Stall;
    EXPECT_GT(stalls, t.size() / 500);
    EXPECT_LT(memFraction(t), 0.2);
}

TEST(SuiteShapes, SpecStreamsStartAtRegionHead)
{
    // bwaves-class traces must activate regions with blocks 0,1 in
    // order — the §III-C streaming-case trigger.
    VectorTrace t = findWorkload("bwaves").make();
    auto orders = pageAccessOrders(t);
    size_t head_started = 0, full = 0;
    for (const auto &[page, order] : orders) {
        if (order.size() < 8)
            continue;
        ++full;
        head_started += order[0] == 0 && order[1] == 1;
    }
    ASSERT_GT(full, 10u);
    EXPECT_GT(double(head_started) / full, 0.9);
}

TEST(SuiteShapes, PointerChaseTracesSerialize)
{
    VectorTrace t = findWorkload("mcf").make();
    size_t dep = 0, mem = 0;
    for (const auto &r : t.data()) {
        dep += r.op == TraceOp::DependentLoad;
        mem += r.op != TraceOp::NonMem && r.op != TraceOp::Stall;
    }
    EXPECT_GT(double(dep) / mem, 0.5);
}

TEST(SuiteShapes, GapAndLigraShareGraphStructure)
{
    // GAP stand-ins reuse the graph generators: traces must contain
    // both sequential (CSR) and scattered (gather) page behaviour.
    VectorTrace t = findWorkload("pr.twi").make();
    auto orders = pageAccessOrders(t);
    size_t seq = 0, scattered = 0;
    for (const auto &[page, order] : orders) {
        if (order.size() < 4)
            continue;
        bool asc = true;
        for (size_t i = 1; i < order.size(); ++i)
            asc &= order[i] > order[i - 1];
        (asc ? seq : scattered)++;
    }
    EXPECT_GT(seq, 5u);
    EXPECT_GT(scattered, 5u);
}

} // namespace
} // namespace gaze
