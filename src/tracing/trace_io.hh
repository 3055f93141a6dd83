/**
 * @file
 * Binary trace record/replay: TraceWriter serializes a TraceRecord
 * stream into a .gzt file (see trace_format.hh for the layout) and
 * FileTrace streams one back as a TraceSource, so any workload the
 * registry knows can be recorded once and replayed bit-identically —
 * the gaze_trace CLI and gaze_sim --trace-dir are thin wrappers over
 * these.
 *
 * Error handling follows the repo convention: probe/validate are
 * non-fatal (they return false plus a diagnostic, for CLI-friendly
 * reporting and negative tests), while FileTrace treats an unusable
 * file as a fatal configuration error.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "tracing/trace_format.hh"

namespace gaze
{

/** Parsed .gzt header (everything before the payload). */
struct TraceFileHeader
{
    uint32_t version = 0;
    uint64_t recordCount = 0;
    uint64_t payloadBytes = 0;
    uint64_t checksum = 0;
    std::string meta; ///< provenance, e.g. "workload=mcf scale=1"

    /** First payload byte's offset in the file. */
    uint64_t payloadOffset() const;
};

/**
 * Streams TraceRecords into @p path. The header is back-patched with
 * the final count/size/checksum by finish() (also run by the
 * destructor), so a crash mid-write leaves a file that probe/validate
 * reject rather than a silently short trace. I/O failures are fatal.
 */
class TraceWriter
{
  public:
    /** @param meta free-form provenance recorded in the header. */
    explicit TraceWriter(const std::string &path, std::string meta = "");
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record (delta state advances). */
    void append(const TraceRecord &rec);

    /** Append a whole in-memory trace. */
    void appendAll(const std::vector<TraceRecord> &recs);

    /** Flush, back-patch the header, close. Idempotent. */
    void finish();

    uint64_t recordsWritten() const { return count; }
    uint64_t payloadBytesWritten() const { return payloadBytes; }

  private:
    void flushBuffer();

    std::string path;
    std::ofstream out;
    std::vector<uint8_t> buffer;
    Fnv1a hash;
    uint64_t count = 0;
    uint64_t payloadBytes = 0;
    PC prevPc = 0;
    Addr prevVaddr = 0;
    bool finished = false;
};

/**
 * Read and sanity-check just the header: magic, version, meta length
 * and payload size versus the actual file size. Cheap (no payload
 * decode). Returns false with a one-line reason in @p error.
 */
bool probeTraceFile(const std::string &path, TraceFileHeader *header,
                    std::string *error);

/** Per-op record counts of one trace payload (indexed by TraceOp). */
struct TraceOpHistogram
{
    uint64_t counts[5] = {0, 0, 0, 0, 0};

    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (uint64_t c : counts)
            sum += c;
        return sum;
    }
};

/**
 * Full integrity check: probe, then decode every record and verify the
 * record count, payload size and checksum all match the header. When
 * @p histogram is non-null it receives the per-op record counts (this
 * is what gaze_trace info --json reports).
 */
bool validateTraceFile(const std::string &path, TraceFileHeader *header,
                       std::string *error,
                       TraceOpHistogram *histogram = nullptr);

/**
 * Stable identity of a recorded trace for result-cache keys:
 * "gzt:v<version>:<records>:<checksum hex>". Only reads the header
 * (the checksum was computed over the whole payload at record time).
 * Fatal on a missing or malformed file — cache keys must never be
 * derived from guesses.
 */
std::string traceCacheKey(const std::string &path);

/** The same key from an already-probed header (no file I/O). */
std::string traceCacheKeyFromHeader(const TraceFileHeader &header);

/**
 * A .gzt file as a TraceSource: decodes records through a fixed-size
 * read buffer (never the whole payload in memory), and reset() seeks
 * back to the payload start so multi-pass replay works like
 * VectorTrace. Construction is fatal on a missing or malformed file;
 * a payload that ends early mid-record is fatal at next() (the header
 * said there was more).
 */
class FileTrace : public TraceSource
{
  public:
    explicit FileTrace(const std::string &path);

    bool next(TraceRecord &out) override;
    void reset() override;

    const TraceFileHeader &header() const { return head; }
    uint64_t size() const { return head.recordCount; }

  private:
    /** Top up the buffer so >= @p need bytes are decodable. */
    bool fill(size_t need);

    std::string path;
    std::ifstream in;
    TraceFileHeader head;

    std::vector<uint8_t> buffer;
    size_t bufPos = 0;   ///< next undecoded byte in buffer
    size_t bufLen = 0;   ///< valid bytes in buffer
    uint64_t consumed = 0; ///< payload bytes fully decoded so far
    uint64_t delivered = 0; ///< records returned since reset
    PC prevPc = 0;
    Addr prevVaddr = 0;
    /** Only a failed decode writes it: no string per record. */
    std::string decodeError;
};

/** Conventional file name for a recorded workload: "<name>.gzt". */
std::string traceFileName(const std::string &workload);

} // namespace gaze
