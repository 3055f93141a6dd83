#include "workloads/generators.hh"

#include <algorithm>

#include "common/log.hh"

namespace gaze
{
namespace
{

/** Distinct virtual-address arenas so generators never collide. */
constexpr Addr streamArena = 0x1000'0000ULL;
constexpr Addr templateArena = 0x4000'0000ULL;
constexpr Addr chaseArena = 0x8000'0000ULL;
constexpr Addr hazardArena = 0xc000'0000ULL;

} // namespace

VectorTrace
genStream(const StreamParams &p)
{
    TraceBuilder tb(p.records);
    Rng rng(p.seed);

    std::vector<Addr> cursor(p.streams);
    std::vector<Addr> base(p.streams);
    for (uint32_t s = 0; s < p.streams; ++s) {
        base[s] = streamArena + Addr(s) * p.pagesPerStream * pageSize
                  + Addr(p.seed % 64) * pageSize;
        cursor[s] = 0;
    }

    uint64_t span = p.pagesPerStream * pageSize;
    uint32_t s = 0;
    while (tb.size() < p.records) {
        Addr va = base[s] + cursor[s];
        PC pc = 0x400100 + 0x40 * s;
        bool is_store = p.storeFraction > 0.0
                        && rng.chance(p.storeFraction);
        if (is_store)
            tb.store(pc + 4, va);
        else
            tb.load(pc, va);

        // Element-granular walk: advance within the block, and jump
        // by the stride when the block is exhausted.
        cursor[s] += p.elemBytes;
        if ((cursor[s] % blockSize) == 0) {
            cursor[s] += (uint64_t(p.strideBlocks) - 1) * blockSize;
        }
        if (cursor[s] >= span)
            cursor[s] = 0;
        tb.nonMem(p.gapNonMem, pc + 8);
        s = (s + 1) % p.streams;
    }
    return tb.build();
}

VectorTrace
genTemplates(const TemplateParams &p)
{
    GAZE_ASSERT(p.numTemplates >= 1 && p.blocksPerTemplate >= 2,
                "degenerate template parameters");
    TraceBuilder tb(p.records);
    Rng rng(p.seed);

    // Build the template footprints. Templates are grouped so that
    // `conflictDegree` of them share one trigger offset and differ in
    // their second offset (and the rest of the body).
    struct Template
    {
        std::vector<uint32_t> offsets; ///< ordered access sequence
        PC pc;
    };
    std::vector<Template> temps(p.numTemplates);
    uint32_t groups = (p.numTemplates + p.conflictDegree - 1)
                      / p.conflictDegree;
    for (uint32_t t = 0; t < p.numTemplates; ++t) {
        uint32_t group = t / p.conflictDegree;
        uint32_t member = t % p.conflictDegree;
        // Trigger offset per group, spread over the region; avoid the
        // 0/1 pair so these regions never look like spatial streaming.
        uint32_t trigger = 2 + (group * 61) % 60;
        uint32_t second = (trigger + 3 + member * 7) % 64;
        if (second == trigger)
            second = (second + 1) % 64;

        Template &tm = temps[t];
        tm.offsets.push_back(trigger);
        tm.offsets.push_back(second);
        uint64_t h = mix64(p.seed * 977 + t * 131);
        while (tm.offsets.size() < p.blocksPerTemplate) {
            uint32_t off = static_cast<uint32_t>(h % 64);
            h = mix64(h);
            if (std::find(tm.offsets.begin(), tm.offsets.end(), off)
                == tm.offsets.end())
                tm.offsets.push_back(off);
        }
        tm.pc = p.sharedPc ? 0x500200 : 0x500200 + 0x1000 * t;
    }
    (void)groups;

    // Pages previously visited keep their template binding.
    std::vector<int32_t> pageTemplate(p.numPages, -1);
    uint64_t fresh_page = p.numPages; // fresh pages beyond the pool

    // A pool of open region generations; each step advances one of
    // them by a single element access, so per-region accesses are
    // spread over ~concurrentRegions * accessesPerBlock * gap
    // instructions — room for prefetches to land.
    struct OpenRegion
    {
        Addr pageBase = 0;
        std::vector<uint32_t> order;
        PC pc = 0;
        size_t pos = 0;      ///< index into order
        uint32_t elem = 0;   ///< element access within current block
    };

    auto open_new = [&](OpenRegion &r) {
        uint32_t t;
        uint64_t page_idx;
        if (rng.chance(p.revisitFraction)) {
            page_idx = rng.below(p.numPages);
            if (pageTemplate[page_idx] < 0)
                pageTemplate[page_idx] =
                    static_cast<int32_t>(rng.below(p.numTemplates));
            t = static_cast<uint32_t>(pageTemplate[page_idx]);
        } else {
            page_idx = fresh_page++;
            t = static_cast<uint32_t>(rng.below(p.numTemplates));
        }
        const Template &tm = temps[t];
        r.pageBase = templateArena + page_idx * pageSize;
        // Pick one of the template's call sites; sharedPc collapses
        // the bases, but variants stay template-consistent.
        uint64_t variant = p.pcVariants > 1 ? rng.below(p.pcVariants)
                                            : 0;
        r.pc = tm.pc + 0x10 * variant;
        r.pos = 0;
        r.elem = 0;
        // Adjacent-swap jitter beyond the first two accesses models
        // out-of-order noise without disturbing the trigger/second.
        r.order = tm.offsets;
        if (p.jitter > 0.0) {
            for (size_t i = 3; i + 1 < r.order.size(); i += 2)
                if (rng.chance(p.jitter))
                    std::swap(r.order[i], r.order[i + 1]);
        }
    };

    std::vector<OpenRegion> open(std::max(1u, p.concurrentRegions));
    for (auto &r : open)
        open_new(r);

    while (tb.size() < p.records) {
        OpenRegion &r = open[rng.below(open.size())];
        Addr block_base = r.pageBase
                          + Addr(r.order[r.pos]) * blockSize;
        tb.load(r.pc + 4 * (r.pos % 8), block_base + 8 * r.elem);
        tb.nonMem(p.gapNonMem, r.pc + 0x40);
        if (++r.elem >= p.accessesPerBlock) {
            r.elem = 0;
            if (++r.pos >= r.order.size())
                open_new(r);
        }
    }
    return tb.build();
}

VectorTrace
genPointerChase(const ChaseParams &p)
{
    TraceBuilder tb(p.records);
    Rng rng(p.seed);

    // A precomputed random permutation cycle over the node array.
    std::vector<uint32_t> nextNode(p.nodes);
    for (uint64_t i = 0; i < p.nodes; ++i)
        nextNode[i] = static_cast<uint32_t>(i);
    // Fisher-Yates to build one long cycle (Sattolo's algorithm).
    for (uint64_t i = p.nodes - 1; i >= 1; --i) {
        uint64_t j = rng.below(i);
        std::swap(nextNode[i], nextNode[j]);
    }

    uint64_t node = 0;
    while (tb.size() < p.records) {
        Addr va = chaseArena + Addr(node) * blockSize;
        tb.dependentLoad(0x600300, va);
        node = nextNode[node];
        if (p.noiseFraction > 0.0 && rng.chance(p.noiseFraction)) {
            Addr nva = chaseArena + rng.below(p.nodes) * blockSize;
            tb.load(0x600340, nva);
        }
        tb.nonMem(p.gapNonMem, 0x600380);
    }
    return tb.build();
}

VectorTrace
genServer(const ServerParams &p)
{
    TraceBuilder tb(p.records);
    Rng rng(p.seed);

    // Inline a sparse-template access stream between front-end stalls.
    TemplateParams data;
    data.seed = p.seed * 31 + 7;
    data.records = p.records;
    data.numTemplates = 12;
    data.conflictDegree = 3;
    data.blocksPerTemplate = 4;
    data.sharedPc = true;
    data.numPages = p.numPages;
    data.revisitFraction = 0.5;
    data.gapNonMem = 0;
    VectorTrace inner = genTemplates(data);
    const auto &recs = inner.data();
    size_t cursor = 0;
    uint64_t since_stall = 0;
    while (tb.size() < p.records && cursor < recs.size()) {
        if (recs[cursor].op != TraceOp::NonMem) {
            tb.load(recs[cursor].pc, recs[cursor].vaddr);
        }
        ++cursor;
        tb.nonMem(p.gapNonMem, 0x700400);
        since_stall += p.gapNonMem + 1;
        if (since_stall >= p.stallPeriod) {
            tb.stall(p.stallCycles);
            since_stall = 0;
        }
    }
    return tb.build();
}

VectorTrace
genStreamHazard(const StreamHazardParams &p)
{
    TraceBuilder tb(p.records);
    Rng rng(p.seed);

    uint64_t page_cursor = 0;
    // Dense (frontier-walk) and sparse (vertex-access) code paths are
    // distinct instructions, as in Ligra's BFS loop; the DPCT's
    // per-PC discrimination is exactly what §III-C relies on. The
    // hazard is that sparse *lookalike* regions still start at blocks
    // 0,1, so trigger/second cannot tell them apart.
    const PC dense_pc = 0x800500;
    const PC sparse_pc = 0x800600;

    struct OpenRegion
    {
        Addr pageBase = 0;
        PC pc = 0;
        uint32_t start = 0; ///< first block offset
        uint32_t blocks = 0;
        uint32_t pos = 0;
        uint32_t elem = 0;
    };

    auto open_new = [&](OpenRegion &r) {
        r.pageBase = hazardArena
                     + ((page_cursor++) % p.numPages) * pageSize;
        if (rng.chance(p.denseFraction)) {
            r.blocks = blocksPerPage;
            r.start = 0;
            r.pc = dense_pc;
        } else {
            r.blocks = p.sparseBlocks;
            r.pc = sparse_pc;
            // Only the lookalikes reproduce the hazard (sparse but
            // starting 0,1); other sparse regions start anywhere.
            r.start = rng.chance(p.sparseLookalike)
                          ? 0
                          : static_cast<uint32_t>(rng.below(
                                blocksPerPage - p.sparseBlocks));
        }
        r.pos = 0;
        r.elem = 0;
    };

    std::vector<OpenRegion> open(std::max(1u, p.concurrentRegions));
    for (auto &r : open)
        open_new(r);

    while (tb.size() < p.records) {
        OpenRegion &r = open[rng.below(open.size())];
        Addr block_base = r.pageBase
                          + Addr(r.start + r.pos) * blockSize;
        tb.load(r.pc + 4 * (r.pos % 4), block_base + 8 * r.elem);
        tb.nonMem(p.gapNonMem, r.pc + 0x20);
        if (++r.elem >= p.accessesPerBlock) {
            r.elem = 0;
            if (++r.pos >= r.blocks)
                open_new(r);
        }
    }
    return tb.build();
}

} // namespace gaze
