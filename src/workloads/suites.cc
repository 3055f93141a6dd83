#include "workloads/suites.hh"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "common/log.hh"
#include "tracing/trace_io.hh"
#include "workloads/generators.hh"
#include "workloads/graph.hh"
#include "workloads/trace_store.hh"

namespace gaze
{

std::unique_ptr<TraceSource>
WorkloadDef::open() const
{
    if (!traceFile.empty())
        return std::make_unique<FileTrace>(traceFile);
    GAZE_ASSERT(make, "workload '", name, "' has no generator");
    return std::make_unique<VectorTrace>(
        traceStore().records(workloadIdentity(*this), make));
}

double
simScale()
{
    static double scale = [] {
        const char *env = std::getenv("GAZE_SIM_SCALE");
        if (!env)
            return 1.0;
        double v = std::atof(env);
        return v > 0.0 ? v : 1.0;
    }();
    return scale;
}

uint64_t
scaledRecords(uint64_t base)
{
    double v = double(base) * simScale();
    return v < 10'000 ? 10'000 : static_cast<uint64_t>(v);
}

namespace
{

/** Shorthands for building the registry below. */
VectorTrace
stream(uint64_t seed, uint32_t streams, uint32_t stride,
       double store_frac = 0.0, uint32_t gap = 3)
{
    StreamParams p;
    p.seed = seed;
    p.records = scaledRecords();
    p.streams = streams;
    p.strideBlocks = stride;
    p.storeFraction = store_frac;
    p.gapNonMem = gap;
    return genStream(p);
}

VectorTrace
templates(uint64_t seed, uint32_t num, uint32_t conflict,
          uint32_t blocks, bool shared_pc, double revisit,
          double jitter = 0.0, uint64_t pages = 8192,
          uint32_t pc_variants = 1, uint32_t gap = 4)
{
    TemplateParams p;
    p.seed = seed;
    p.records = scaledRecords();
    p.numTemplates = num;
    p.conflictDegree = conflict;
    p.blocksPerTemplate = blocks;
    p.sharedPc = shared_pc;
    p.revisitFraction = revisit;
    p.jitter = jitter;
    p.numPages = pages;
    p.pcVariants = pc_variants;
    p.gapNonMem = gap;
    return genTemplates(p);
}

VectorTrace
chase(uint64_t seed, uint64_t nodes, double noise = 0.2)
{
    ChaseParams p;
    p.seed = seed;
    p.records = scaledRecords();
    p.nodes = nodes;
    p.noiseFraction = noise;
    return genPointerChase(p);
}

VectorTrace
hazard(uint64_t seed, double dense_frac, uint32_t sparse_blocks)
{
    StreamHazardParams p;
    p.seed = seed;
    p.records = scaledRecords();
    p.denseFraction = dense_frac;
    p.sparseBlocks = sparse_blocks;
    return genStreamHazard(p);
}

VectorTrace
server(uint64_t seed)
{
    ServerParams p;
    p.seed = seed;
    p.records = scaledRecords();
    return genServer(p);
}

GraphTraceParams
graphParams(uint64_t seed)
{
    GraphTraceParams p;
    p.seed = seed;
    p.records = scaledRecords();
    p.vertices = 1 << 17;
    p.gapNonMem = 3;
    return p;
}

std::vector<WorkloadDef>
buildRegistry()
{
    std::vector<WorkloadDef> w;

    // ---- SPEC06 stand-ins ------------------------------------------
    // leslie3d/bwaves: dense multi-array streaming.
    w.push_back({"leslie3d", "spec06", [] { return stream(101, 3, 1); }});
    w.push_back({"bwaves", "spec06", [] { return stream(102, 2, 1); }});
    // milc: regular multi-block strides.
    w.push_back({"milc", "spec06", [] { return stream(103, 2, 4); }});
    // mcf: pointer chasing dominated.
    w.push_back({"mcf", "spec06", [] { return chase(104, 1 << 18); }});
    // gcc: recurring footprints, low conflict (simple patterns).
    w.push_back({"gcc", "spec06",
                 [] { return templates(105, 6, 1, 10, false, 0.7); }});
    // soplex: strided + streaming mix (two stride classes).
    w.push_back({"soplex", "spec06", [] { return stream(106, 3, 2); }});
    // sphinx3: moderate-density templates, mild conflicts.
    w.push_back({"sphinx3", "spec06",
                 [] { return templates(107, 8, 2, 8, true, 0.6); }});
    // lbm: write-heavy streaming (bandwidth-bound).
    w.push_back({"lbm", "spec06",
                 [] { return stream(108, 4, 1, 0.45, 2); }});

    // ---- SPEC17 stand-ins ------------------------------------------
    w.push_back({"bwaves_s", "spec17", [] { return stream(201, 2, 1); }});
    w.push_back({"lbm_s", "spec17",
                 [] { return stream(202, 4, 1, 0.45, 2); }});
    w.push_back({"roms_s", "spec17", [] { return stream(203, 3, 2); }});
    // fotonik3d: the Fig. 2 example — recurring footprints with
    // consistent internal order and trigger conflicts.
    w.push_back({"fotonik3d_s", "spec17",
                 [] { return templates(204, 9, 3, 12, true, 0.7); }});
    w.push_back({"mcf_s", "spec17", [] { return chase(205, 1 << 19); }});
    // xalancbmk: high-conflict complex patterns with jitter.
    w.push_back({"xalancbmk_s", "spec17",
                 [] { return templates(206, 16, 4, 6, true, 0.5,
                                       0.2); }});
    // omnetpp: pointer-heavy with some locality.
    w.push_back({"omnetpp_s", "spec17",
                 [] { return chase(207, 1 << 16, 0.4); }});
    // gcc_s: low-conflict templates.
    w.push_back({"gcc_s", "spec17",
                 [] { return templates(208, 6, 1, 10, false, 0.7); }});
    // cam4/pop2: stride + template mix (streams with sparse touches).
    w.push_back({"pop2_s", "spec17", [] { return stream(209, 4, 3); }});

    // ---- Ligra stand-ins -------------------------------------------
    w.push_back({"PageRank-1", "ligra",
                 [] { return genPageRank(graphParams(301), true); }});
    w.push_back({"PageRank-61", "ligra",
                 [] { return genPageRank(graphParams(302), false); }});
    w.push_back({"BFS-1", "ligra",
                 [] { return genBfs(graphParams(303), true); }});
    w.push_back({"BFS-17", "ligra",
                 [] { return genBfs(graphParams(304), false); }});
    w.push_back({"BellmanFord-4", "ligra",
                 [] { return genPageRank(graphParams(305), true); }});
    w.push_back({"BellmanFord-34", "ligra",
                 [] { return genBfs(graphParams(306), false); }});
    w.push_back({"Components-24", "ligra",
                 [] { return genPageRank(graphParams(307), false); }});
    w.push_back({"Triangle-4", "ligra",
                 [] { return genTriangle(graphParams(308)); }});
    // The §III-C hazard in isolation: frontier streaming interleaved
    // with sparse region starts from the same code.
    w.push_back({"BC-4", "ligra", [] { return hazard(309, 0.55, 4); }});
    w.push_back({"MIS-17", "ligra", [] { return hazard(310, 0.35, 6); }});

    // ---- PARSEC stand-ins ------------------------------------------
    w.push_back({"facesim", "parsec", [] { return stream(401, 2, 4); }});
    w.push_back({"streamcluster", "parsec",
                 [] { return stream(402, 1, 1, 0.0, 8); }});
    w.push_back({"canneal", "parsec",
                 [] { return chase(403, 1 << 18, 0.3); }});
    w.push_back({"fluidanimate", "parsec",
                 [] { return templates(404, 6, 2, 14, false, 0.8); }});

    // ---- CloudSuite stand-ins --------------------------------------
    // Scale-out server workloads: large irregular footprints where
    // footprints correlate with (trigger, second) and with PC+Address,
    // but not with coarse events. Front-end pressure included.
    // Cloud footprints are code-correlated (each call site produces
    // one template) but the code footprint is huge: 24-32 templates x
    // ~40 call sites overflow small PC-indexed tables while the 16k
    // PHTs of SMS/Bingo cope. Offset-only (PMP) conflicts regardless.
    // Cloud data misses are modest (the primary pressure is the code
    // footprint), so the memory-op gap is wider than SPEC's.
    w.push_back({"cassandra-p0c0", "cloud",
                 [] { return templates(501, 24, 4, 7, false, 0.55, 0.15,
                                       16384, 40, 8); }});
    w.push_back({"cassandra-p1c1", "cloud",
                 [] { return templates(502, 24, 4, 7, false, 0.55, 0.15,
                                       16384, 40, 8); }});
    w.push_back({"nutch-p0c0", "cloud",
                 [] { return templates(503, 32, 4, 5, false, 0.5, 0.2,
                                       16384, 48, 8); }});
    w.push_back({"cloud9-p5c2", "cloud",
                 [] { return templates(504, 20, 5, 6, false, 0.45, 0.2,
                                       16384, 40, 8); }});
    // Media streaming: the one cloud workload with real streams
    // (modest intensity — it shares the suite with five irregular
    // traces, as CloudSuite's mix does).
    w.push_back({"stream-p1c0", "cloud",
                 [] { return stream(505, 1, 1, 0.1, 9); }});
    w.push_back({"classification-p2c0", "cloud",
                 [] { return templates(506, 16, 3, 8, false, 0.6, 0.1,
                                       16384, 32, 8); }});

    // ---- GAP stand-ins ---------------------------------------------
    w.push_back({"pr.twi", "gap",
                 [] { return genPageRank(graphParams(601), false); }});
    w.push_back({"pr.web", "gap",
                 [] { return genPageRank(graphParams(602), false); }});
    w.push_back({"cc.twi", "gap",
                 [] { return genBfs(graphParams(603), false); }});
    w.push_back({"cc.web", "gap",
                 [] { return genBfs(graphParams(604), false); }});
    w.push_back({"tc.twi", "gap",
                 [] { return genTriangle(graphParams(605)); }});
    w.push_back({"tc.web", "gap",
                 [] { return genTriangle(graphParams(606)); }});

    // ---- QMM stand-ins ---------------------------------------------
    w.push_back({"srv.09", "qmm_server", [] { return server(701); }});
    w.push_back({"srv.27", "qmm_server", [] { return server(702); }});
    w.push_back({"srv.46", "qmm_server", [] { return server(703); }});
    w.push_back({"clt.fp.06", "qmm_client",
                 [] { return stream(704, 3, 1); }});
    w.push_back({"clt.int.01", "qmm_client",
                 [] { return stream(705, 2, 3); }});
    w.push_back({"clt.int.19", "qmm_client",
                 [] { return templates(706, 8, 2, 10, false, 0.7); }});

    return w;
}

} // namespace

const std::vector<WorkloadDef> &
allWorkloads()
{
    static const std::vector<WorkloadDef> registry = buildRegistry();
    return registry;
}

namespace
{

/** The registry entry named @p name, or the diagnostic. */
bool
lookupWorkload(const std::string &name, const WorkloadDef **out,
               std::string *error)
{
    for (const auto &w : allWorkloads()) {
        if (w.name == name) {
            *out = &w;
            return true;
        }
    }
    return failWith(error, "unknown workload '", name, "'");
}

} // namespace

bool
resolveWorkloads(const std::vector<std::string> &names,
                 const std::vector<std::string> &suites,
                 std::vector<WorkloadDef> *out, std::string *error)
{
    std::vector<WorkloadDef> axis;
    for (const auto &n : names) {
        const WorkloadDef *w = nullptr;
        if (!lookupWorkload(n, &w, error))
            return false;
        axis.push_back(*w);
    }
    for (const auto &suite : names.empty() && suites.empty()
                                 ? mainSuites()
                                 : suites) {
        bool known = false;
        for (const auto &w : allWorkloads()) {
            bool member = w.suite == suite
                          || (suite == "qmm"
                              && (w.suite == "qmm_server"
                                  || w.suite == "qmm_client"));
            known = known || member;
            if (member && names.empty())
                axis.push_back(w);
        }
        if (!known)
            return failWith(error, "unknown suite '", suite, "'");
    }
    *out = std::move(axis);
    return true;
}

std::vector<WorkloadDef>
suiteWorkloads(const std::string &suite)
{
    std::vector<WorkloadDef> out;
    std::string error;
    if (!resolveWorkloads({}, {suite}, &out, &error))
        GAZE_FATAL(error);
    return out;
}

const WorkloadDef &
findWorkload(const std::string &name)
{
    const WorkloadDef *w = nullptr;
    std::string error;
    if (!lookupWorkload(name, &w, &error))
        GAZE_FATAL(error);
    return *w;
}

std::vector<WorkloadDef>
withTraceDir(std::vector<WorkloadDef> workloads, const std::string &dir)
{
    GAZE_ASSERT(!dir.empty(), "empty trace directory");
    std::string base = dir;
    if (base.back() != '/')
        base += '/';
    for (auto &w : workloads)
        w.traceFile = base + traceFileName(w.name);
    return workloads;
}

std::string
workloadIdentity(const WorkloadDef &w)
{
    if (!w.traceFile.empty()) {
        // Campaign expansion derives keys for every (cell, baseline,
        // core copy), so one path is asked for thousands of times;
        // memoize the header read. The memo is keyed by the file's
        // size, mtime and inode as well as its path: a trace
        // re-recorded under a live process (a daemon) must get its
        // new key, or results simulated from the new file would be
        // stored under the old one.
        struct stat st = {};
        if (::stat(w.traceFile.c_str(), &st) != 0)
            return w.name + "=" + traceCacheKey(w.traceFile); // fatal
        struct Stamp
        {
            uint64_t size, mtimeNs, inode;
            bool operator==(const Stamp &) const = default;
        };
        Stamp stamp{uint64_t(st.st_size),
                    uint64_t(st.st_mtim.tv_sec) * 1'000'000'000u
                        + uint64_t(st.st_mtim.tv_nsec),
                    uint64_t(st.st_ino)};
        static std::mutex mtx;
        static std::map<std::string, std::pair<Stamp, std::string>> keys;
        std::unique_lock<std::mutex> lock(mtx);
        auto &memo = keys[w.traceFile];
        if (memo.second.empty() || memo.first != stamp)
            memo = {stamp, traceCacheKey(w.traceFile)};
        return w.name + "=" + memo.second;
    }
    char scale[40];
    std::snprintf(scale, sizeof(scale), "%.17g", simScale());
    return w.name + "=gen:scale=" + scale;
}

const std::vector<std::string> &
mainSuites()
{
    static const std::vector<std::string> suites = {
        "spec06", "spec17", "ligra", "parsec", "cloud"};
    return suites;
}

} // namespace gaze
