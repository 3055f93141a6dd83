/**
 * @file
 * Every registry workload's generated trace, pinned at
 * GAZE_SIM_SCALE=0.02: its record count and the FNV-1a checksum of its
 * .gzt payload (the `checksum` that `gaze_trace info` prints). A
 * generator change that moves any trace fails here and names the
 * workload. To re-pin after an intended change, run
 * `GAZE_SIM_SCALE=0.02 gaze_trace record --suites=spec06,spec17,ligra,
 * parsec,cloud,gap,qmm` and copy each file's `gaze_trace info` line.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "tracing/trace_io.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

// Pin the scale before anything in this process can call simScale().
const bool kScalePinned = [] {
    setenv("GAZE_SIM_SCALE", "0.02", 1);
    return true;
}();

struct TracePin
{
    uint64_t records;
    uint64_t checksum;
};

const std::map<std::string, TracePin> &
tracePins()
{
    static const std::map<std::string, TracePin> pins = {
        {"leslie3d", {12000, 0xd8883d63f9749502ULL}},
        {"bwaves", {12000, 0x5a4047f0b1aeebc8ULL}},
        {"milc", {12000, 0x0a3f573ecaf59bf3ULL}},
        {"mcf", {12004, 0xac16e02fc37543c3ULL}},
        {"gcc", {12000, 0xc35ae631097f3be9ULL}},
        {"soplex", {12000, 0xbe2b64f4acfe09c9ULL}},
        {"sphinx3", {12000, 0x989a419961d58585ULL}},
        {"lbm", {12000, 0xc291bcbdd21b9ae9ULL}},
        {"bwaves_s", {12000, 0xa7b087e73c2395ebULL}},
        {"lbm_s", {12000, 0x49b8fde4c671e4baULL}},
        {"roms_s", {12000, 0xb6f79963f44be699ULL}},
        {"fotonik3d_s", {12000, 0x2ac25af83f9bd754ULL}},
        {"mcf_s", {12004, 0x13db2a6eb3831c16ULL}},
        {"xalancbmk_s", {12000, 0x6be70b3eee63d90cULL}},
        {"omnetpp_s", {12002, 0xc9b8b719a4103ebdULL}},
        {"gcc_s", {12000, 0x376c94b6dc261006ULL}},
        {"pop2_s", {12000, 0xacebb19204181d83ULL}},
        {"PageRank-1", {12006, 0xc2f6b13c61e6da29ULL}},
        {"PageRank-61", {12005, 0x4e12009f0639c388ULL}},
        {"BFS-1", {12006, 0x3c38388da29ff153ULL}},
        {"BFS-17", {12004, 0x1104c8aaadab5324ULL}},
        {"BellmanFord-4", {12006, 0x89e6278187842d94ULL}},
        {"BellmanFord-34", {12004, 0x6e2571f25a29e041ULL}},
        {"Components-24", {12000, 0xbb08ad6de721446dULL}},
        {"Triangle-4", {12004, 0x81aa3304e27ca7c9ULL}},
        {"BC-4", {12000, 0x5d2a43fa655db1e0ULL}},
        {"MIS-17", {12000, 0x265281fb7aa7a6b0ULL}},
        {"facesim", {12000, 0x940bef609a8681dcULL}},
        {"streamcluster", {12006, 0x9da86fa5354d5e73ULL}},
        {"canneal", {12002, 0x6817aad48e1f25e2ULL}},
        {"fluidanimate", {12000, 0xc29a01326e400f29ULL}},
        {"cassandra-p0c0", {12006, 0xa7bbfc30d0e5bbd1ULL}},
        {"cassandra-p1c1", {12006, 0xbbe90e46b1112159ULL}},
        {"nutch-p0c0", {12006, 0x81da962d48b3c1e2ULL}},
        {"cloud9-p5c2", {12006, 0xca0581ee844079d1ULL}},
        {"stream-p1c0", {12000, 0xd96d2645bcf14658ULL}},
        {"classification-p2c0", {12006, 0xf88ba75bc0a5301dULL}},
        {"pr.twi", {12005, 0xadec4a752da635fbULL}},
        {"pr.web", {12002, 0x35ca66baadecd01bULL}},
        {"cc.twi", {12005, 0xd887d7b72ee5f001ULL}},
        {"cc.web", {12005, 0x91548626148b1c5eULL}},
        {"tc.twi", {12003, 0x694f3f601aaa9872ULL}},
        {"tc.web", {12003, 0x003e1549da81b100ULL}},
        {"srv.09", {12009, 0x317924a14eee0103ULL}},
        {"srv.27", {12009, 0x234f61897d1e7bb6ULL}},
        {"srv.46", {12009, 0xdd73f95bd453f14dULL}},
        {"clt.fp.06", {12000, 0x41484b3f8162b0f4ULL}},
        {"clt.int.01", {12000, 0x50814e47a89d986dULL}},
        {"clt.int.19", {12000, 0xcdaff0d57aadb9c8ULL}},
    };
    return pins;
}

TEST(TracePins, EveryRegistryWorkloadIsPinned)
{
    ASSERT_TRUE(kScalePinned);
    EXPECT_EQ(allWorkloads().size(), tracePins().size());
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(tracePins().count(w.name)) << w.name << " has no pin";
}

TEST(TracePins, GeneratedTracesMatchTheirPins)
{
    for (const auto &w : allWorkloads()) {
        auto pin = tracePins().find(w.name);
        if (pin == tracePins().end())
            continue; // EveryRegistryWorkloadIsPinned names it
        std::string path = testing::TempDir() + "trace_pin_"
                           + traceFileName(w.name);
        {
            TraceWriter writer(path);
            writer.appendAll(w.make().data());
        }
        TraceFileHeader head;
        std::string error;
        ASSERT_TRUE(probeTraceFile(path, &head, &error)) << error;
        std::remove(path.c_str());
        EXPECT_EQ(head.recordCount, pin->second.records) << w.name;
        EXPECT_EQ(head.checksum, pin->second.checksum)
            << w.name << ": checksum " << std::hex << head.checksum;
    }
}

} // namespace
} // namespace gaze
