/**
 * @file
 * Trace codec and file I/O tests: varint/zigzag primitives, exact
 * round-trips of arbitrary record streams (all TraceOp kinds, extreme
 * PCs/vaddrs/stall cycles), rejection of truncated/corrupt/wrong-
 * version files with clear diagnostics, FileTrace's bounded-buffer
 * streaming, and reset() replay equivalence with VectorTrace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "tracing/trace_format.hh"
#include "tracing/trace_io.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Write @p recs to a fresh .gzt and return its path. */
std::string
writeTrace(const std::string &name, const std::vector<TraceRecord> &recs,
           const std::string &meta = "unit-test")
{
    std::string path = tmpPath(name);
    TraceWriter w(path, meta);
    w.appendAll(recs);
    w.finish();
    return path;
}

/** Read a whole .gzt back through FileTrace. */
std::vector<TraceRecord>
readTrace(const std::string &path)
{
    FileTrace t(path);
    std::vector<TraceRecord> out;
    TraceRecord rec;
    while (t.next(rec))
        out.push_back(rec);
    return out;
}

TraceRecord
makeRec(PC pc, Addr vaddr, TraceOp op, uint16_t stall = 0)
{
    TraceRecord r;
    r.pc = pc;
    r.vaddr = vaddr;
    r.op = op;
    r.stallCycles = stall;
    return r;
}

/** In-place byte edit of a written file. */
void
corruptByte(const std::string &path, uint64_t offset, uint8_t value)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&value), 1);
}

void
truncateFile(const std::string &path, uint64_t keep)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> data(keep);
    in.read(data.data(), static_cast<std::streamsize>(keep));
    ASSERT_EQ(in.gcount(), std::streamsize(keep));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(keep));
}

// ---- codec primitives -----------------------------------------------

TEST(TraceFormat, VarintRoundTripsBoundaryValues)
{
    const uint64_t cases[] = {0,
                              1,
                              127,
                              128,
                              16383,
                              16384,
                              (1ULL << 32) - 1,
                              1ULL << 32,
                              UINT64_MAX - 1,
                              UINT64_MAX};
    for (uint64_t v : cases) {
        uint8_t buf[kMaxVarintBytes];
        size_t n = putVarint(buf, v);
        ASSERT_GE(n, 1u);
        ASSERT_LE(n, kMaxVarintBytes);
        uint64_t back = 0;
        EXPECT_EQ(getVarint(buf, buf + n, &back), n) << v;
        EXPECT_EQ(back, v);
        // A starved buffer must report truncation, not decode junk.
        EXPECT_EQ(getVarint(buf, buf + n - 1, &back), 0u) << v;
    }
}

TEST(TraceFormat, RejectsVarintOverflowingUint64)
{
    // Nine continuation bytes put the 10th at value bit 63: only 0 or
    // 1 fit there. Anything larger must be rejected, not truncated.
    uint8_t buf[kMaxVarintBytes];
    for (size_t i = 0; i < kMaxVarintBytes - 1; ++i)
        buf[i] = 0x80;
    uint64_t v = 0;
    buf[kMaxVarintBytes - 1] = 0x7E;
    EXPECT_EQ(getVarint(buf, buf + sizeof(buf), &v), 0u);
    buf[kMaxVarintBytes - 1] = 0x01;
    EXPECT_EQ(getVarint(buf, buf + sizeof(buf), &v), kMaxVarintBytes);
    EXPECT_EQ(v, 1ULL << 63);
}

TEST(TraceFormat, ZigzagRoundTripsExtremes)
{
    const int64_t cases[] = {0,  1,  -1, 63, -64, INT64_MAX,
                             INT64_MIN, -123456789, 123456789};
    for (int64_t v : cases)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    // Small magnitudes stay small: that is the whole point.
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
}

// ---- round trips ----------------------------------------------------

TEST(TraceRoundTrip, AllOpsAndExtremeValues)
{
    std::vector<TraceRecord> recs = {
        makeRec(0, 0, TraceOp::NonMem),
        makeRec(UINT64_MAX, UINT64_MAX, TraceOp::Load),
        makeRec(0x400000, 0, TraceOp::Stall, UINT16_MAX),
        makeRec(0x400004, 0x7fff'ffff'ffff'ffffULL,
                TraceOp::DependentLoad, 1),
        makeRec(0x400004, 1, TraceOp::Store),
        // vaddr == 0 on a memory op must survive (absent-field path).
        makeRec(0x3fffff, 0, TraceOp::Load),
        makeRec(1, UINT64_MAX, TraceOp::Store, 12345),
    };
    std::string path = writeTrace("roundtrip_extreme.gzt", recs);

    std::string error;
    EXPECT_TRUE(validateTraceFile(path, nullptr, &error)) << error;

    std::vector<TraceRecord> back = readTrace(path);
    ASSERT_EQ(back.size(), recs.size());
    for (size_t i = 0; i < recs.size(); ++i)
        EXPECT_TRUE(back[i] == recs[i]) << "record " << i;
}

TEST(TraceRoundTrip, RandomStreamsAreExact)
{
    Rng rng(0xC0DEC);
    for (int iter = 0; iter < 20; ++iter) {
        std::vector<TraceRecord> recs;
        uint64_t n = rng.range(1, 3000);
        recs.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            TraceRecord r;
            r.op = static_cast<TraceOp>(rng.below(5));
            // Mix local deltas with full-range jumps.
            r.pc = rng.chance(0.8) ? 0x400000 + rng.below(1 << 20)
                                   : rng.next();
            r.vaddr = rng.chance(0.1) ? 0 : rng.next();
            r.stallCycles = static_cast<uint16_t>(
                rng.chance(0.3) ? rng.below(UINT16_MAX + 1) : 0);
            recs.push_back(r);
        }
        std::string path = writeTrace("roundtrip_rand.gzt", recs);
        std::vector<TraceRecord> back = readTrace(path);
        ASSERT_EQ(back.size(), recs.size()) << "iter " << iter;
        for (size_t i = 0; i < recs.size(); ++i)
            ASSERT_TRUE(back[i] == recs[i])
                << "iter " << iter << " record " << i;
    }
}

TEST(TraceRoundTrip, EmptyTraceIsValid)
{
    std::string path = writeTrace("empty.gzt", {});
    std::string error;
    TraceFileHeader head;
    EXPECT_TRUE(validateTraceFile(path, &head, &error)) << error;
    EXPECT_EQ(head.recordCount, 0u);
    EXPECT_TRUE(readTrace(path).empty());
}

TEST(TraceRoundTrip, LargeStreamCrossesBufferBoundaries)
{
    // > 64 KiB of payload forces multiple reader refills.
    Rng rng(7);
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 60000; ++i) {
        TraceRecord r;
        r.op = TraceOp::Load;
        r.pc = 0x400000 + uint64_t(i) * 4;
        r.vaddr = rng.next(); // worst-case deltas: ~10-byte varints
        recs.push_back(r);
    }
    std::string path = writeTrace("large.gzt", recs);
    TraceFileHeader head;
    std::string error;
    ASSERT_TRUE(probeTraceFile(path, &head, &error)) << error;
    EXPECT_GT(head.payloadBytes, uint64_t(256 * 1024));

    std::vector<TraceRecord> back = readTrace(path);
    ASSERT_EQ(back.size(), recs.size());
    for (size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(back[i] == recs[i]) << "record " << i;
}

TEST(TraceRoundTrip, DeltaEncodingStaysCompact)
{
    // A strided stream (the common case) should cost a few bytes per
    // record, far below the 19-byte in-memory footprint.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 10000; ++i)
        recs.push_back(makeRec(0x400000 + (i % 7) * 4,
                               0x10000000 + uint64_t(i) * 64,
                               TraceOp::Load));
    std::string path = writeTrace("compact.gzt", recs);
    TraceFileHeader head;
    std::string error;
    ASSERT_TRUE(probeTraceFile(path, &head, &error)) << error;
    EXPECT_LT(head.payloadBytes, recs.size() * 6);
}

TEST(TraceRoundTrip, HeaderCarriesMeta)
{
    std::string path = writeTrace("meta.gzt", {makeRec(1, 2,
                                                       TraceOp::Load)},
                                  "workload=unit suite=test scale=1");
    TraceFileHeader head;
    std::string error;
    ASSERT_TRUE(probeTraceFile(path, &head, &error)) << error;
    EXPECT_EQ(head.version, kGztVersion);
    EXPECT_EQ(head.recordCount, 1u);
    EXPECT_EQ(head.meta, "workload=unit suite=test scale=1");
    EXPECT_EQ(head.payloadOffset(), kGztFixedHeaderBytes
                                        + head.meta.size());
}

// ---- rejection of bad files -----------------------------------------

TEST(TraceRejection, MissingFile)
{
    std::string error;
    EXPECT_FALSE(probeTraceFile(tmpPath("nonexistent.gzt"), nullptr,
                                &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceRejection, CorruptMagic)
{
    std::string path =
        writeTrace("badmagic.gzt", {makeRec(1, 2, TraceOp::Load)});
    corruptByte(path, 0, 'X');
    std::string error;
    EXPECT_FALSE(probeTraceFile(path, nullptr, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    EXPECT_FALSE(validateTraceFile(path, nullptr, &error));
}

TEST(TraceRejection, WrongVersion)
{
    std::string path =
        writeTrace("badver.gzt", {makeRec(1, 2, TraceOp::Load)});
    corruptByte(path, 4, 99);
    std::string error;
    EXPECT_FALSE(probeTraceFile(path, nullptr, &error));
    EXPECT_NE(error.find("unsupported .gzt version 99"),
              std::string::npos)
        << error;
}

TEST(TraceRejection, UnfinishedRecordingHasVersionZero)
{
    // A writer that never reaches finish() leaves the placeholder
    // version, which must read as "unfinished", not as an empty trace.
    std::string path = tmpPath("unfinished.gzt");
    {
        TraceWriter w(path, "meta");
        w.append(makeRec(1, 2, TraceOp::Load));
        // Simulate a crash: bypass finish() by corrupting afterwards.
        w.finish();
    }
    corruptByte(path, 4, 0);
    std::string error;
    EXPECT_FALSE(probeTraceFile(path, nullptr, &error));
    EXPECT_NE(error.find("version 0"), std::string::npos) << error;
}

TEST(TraceRejection, TruncatedHeader)
{
    std::string path =
        writeTrace("shorthead.gzt", {makeRec(1, 2, TraceOp::Load)});
    truncateFile(path, kGztFixedHeaderBytes / 2);
    std::string error;
    EXPECT_FALSE(probeTraceFile(path, nullptr, &error));
    EXPECT_NE(error.find("truncated header"), std::string::npos)
        << error;
}

TEST(TraceRejection, TruncatedPayload)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 100; ++i)
        recs.push_back(makeRec(0x1000 + i, 0x2000 + i, TraceOp::Load));
    std::string path = writeTrace("shortpayload.gzt", recs);
    TraceFileHeader head;
    std::string error;
    ASSERT_TRUE(probeTraceFile(path, &head, &error)) << error;
    truncateFile(path, head.payloadOffset() + head.payloadBytes - 5);
    EXPECT_FALSE(probeTraceFile(path, nullptr, &error));
    EXPECT_NE(error.find("does not match header"), std::string::npos)
        << error;
}

TEST(TraceRejection, CorruptPayloadFailsChecksum)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 100; ++i)
        recs.push_back(makeRec(0x1000 + i, 0x2000 + i, TraceOp::Load));
    std::string path = writeTrace("badsum.gzt", recs);
    TraceFileHeader head;
    std::string error;
    ASSERT_TRUE(probeTraceFile(path, &head, &error)) << error;

    // Flip a low bit of one delta mid-payload: still decodable, but
    // the checksum must catch it.
    uint64_t off = head.payloadOffset() + head.payloadBytes / 2;
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(off));
    char old = 0;
    in.read(&old, 1);
    in.close();
    corruptByte(path, off, static_cast<uint8_t>(old) ^ 0x01);

    EXPECT_TRUE(probeTraceFile(path, nullptr, &error)) << error;
    EXPECT_FALSE(validateTraceFile(path, nullptr, &error));
    EXPECT_TRUE(error.find("checksum") != std::string::npos
                || error.find("corrupt") != std::string::npos)
        << error;
}

TEST(TraceRejectionDeath, FileTraceRefusesBadFiles)
{
    std::string path =
        writeTrace("fatal.gzt", {makeRec(1, 2, TraceOp::Load)});
    corruptByte(path, 0, 'X');
    EXPECT_DEATH(FileTrace{path}, "bad magic");
    EXPECT_DEATH(FileTrace{tmpPath("nope.gzt")}, "cannot open");
}

// ---- FileTrace semantics --------------------------------------------

TEST(FileTrace, ResetReplaysIdenticallyToVectorTrace)
{
    const WorkloadDef &w = findWorkload("leslie3d");
    VectorTrace vec = w.make();
    std::string path = writeTrace("reset.gzt", vec.data());

    FileTrace file(path);
    ASSERT_EQ(file.size(), vec.size());

    // Two full passes over both sources, with an extra mid-stream
    // reset of the file reader in between: every pass must agree with
    // the in-memory trace record-for-record.
    for (int pass = 0; pass < 2; ++pass) {
        vec.reset();
        file.reset();
        TraceRecord a, b;
        uint64_t n = 0;
        while (vec.next(a)) {
            ASSERT_TRUE(file.next(b)) << "pass " << pass << " rec " << n;
            ASSERT_TRUE(a == b) << "pass " << pass << " rec " << n;
            ++n;
        }
        EXPECT_FALSE(file.next(b));
        // Exhausted sources stay exhausted.
        EXPECT_FALSE(file.next(b));
    }

    // A reset mid-stream restarts from record zero.
    file.reset();
    TraceRecord first;
    ASSERT_TRUE(file.next(first));
    for (int i = 0; i < 100; ++i) {
        TraceRecord skip;
        ASSERT_TRUE(file.next(skip));
    }
    file.reset();
    TraceRecord again;
    ASSERT_TRUE(file.next(again));
    EXPECT_TRUE(first == again);
}

TEST(TraceIdentity, FollowsAFileReRecordedInProcess)
{
    // A long-lived process (a daemon) must key a re-recorded trace by
    // its new header, not by what it read from the path before.
    std::vector<TraceRecord> recs;
    for (uint64_t i = 0; i < 30000; ++i)
        recs.push_back(makeRec(0x400000 + 4 * (i % 64), 0x10000 + 64 * i,
                               TraceOp::Load));
    WorkloadDef w;
    w.name = "leslie3d";
    w.traceFile = writeTrace(
        "rerecord.gzt", std::vector<TraceRecord>(recs.begin(),
                                                 recs.begin() + 20000));
    std::string before = workloadIdentity(w);
    EXPECT_EQ(before, "leslie3d=" + traceCacheKey(w.traceFile));

    writeTrace("rerecord.gzt", recs);
    std::string after = workloadIdentity(w);
    EXPECT_NE(after, before);
    EXPECT_EQ(after, "leslie3d=" + traceCacheKey(w.traceFile));
}

TEST(FileTrace, HeaderAccessorMatchesProbe)
{
    std::string path = writeTrace(
        "accessor.gzt", {makeRec(1, 2, TraceOp::Load)}, "meta-string");
    TraceFileHeader probed;
    std::string error;
    ASSERT_TRUE(probeTraceFile(path, &probed, &error)) << error;

    FileTrace file(path);
    EXPECT_EQ(file.header().recordCount, probed.recordCount);
    EXPECT_EQ(file.header().checksum, probed.checksum);
    EXPECT_EQ(file.header().meta, probed.meta);
}

} // namespace
} // namespace gaze
