#include "tracing/trace_io.hh"

#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace gaze
{
namespace
{

/** Writer/reader chunk size: bounds FileTrace memory per open file. */
constexpr size_t kIoChunkBytes = 64 * 1024;

/** Worst-case encoded record: tag + three maximal varints. */
constexpr size_t kMaxRecordBytes = 1 + 3 * kMaxVarintBytes;

void
putLe32(uint8_t *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putLe64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
getLe32(const uint8_t *in)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(in[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(in[i]) << (8 * i);
    return v;
}

/**
 * Encode one record into @p out (>= kMaxRecordBytes free); advances
 * the delta state. Returns bytes written.
 */
size_t
encodeRecord(uint8_t *out, const TraceRecord &rec, PC &prev_pc,
             Addr &prev_vaddr)
{
    uint8_t tag = static_cast<uint8_t>(rec.op) & kGztOpMask;
    if (rec.stallCycles != 0)
        tag |= kGztHasStall;
    if (rec.vaddr != 0)
        tag |= kGztHasVaddr;
    size_t n = 0;
    out[n++] = tag;
    n += putVarint(out + n,
                   zigzagEncode(int64_t(rec.pc - prev_pc)));
    prev_pc = rec.pc;
    if (tag & kGztHasVaddr) {
        n += putVarint(out + n,
                       zigzagEncode(int64_t(rec.vaddr - prev_vaddr)));
        prev_vaddr = rec.vaddr;
    }
    if (tag & kGztHasStall)
        n += putVarint(out + n, rec.stallCycles);
    return n;
}

/**
 * Decode one record from [@p in, @p end). Returns bytes consumed, 0 on
 * a malformed or incomplete record (with a reason in @p error).
 */
size_t
decodeRecord(const uint8_t *in, const uint8_t *end, TraceRecord *rec,
             PC &prev_pc, Addr &prev_vaddr, std::string *error)
{
    if (in >= end) {
        *error = "record truncated (missing tag byte)";
        return 0;
    }
    uint8_t tag = in[0];
    if (tag & kGztReservedMask) {
        *error = "corrupt record tag (reserved bits set)";
        return 0;
    }
    uint8_t op = tag & kGztOpMask;
    if (op > static_cast<uint8_t>(TraceOp::Stall)) {
        *error = "corrupt record tag (unknown op)";
        return 0;
    }
    size_t n = 1;
    uint64_t raw = 0;
    size_t used = getVarint(in + n, end, &raw);
    if (!used) {
        *error = "record truncated (pc delta)";
        return 0;
    }
    n += used;
    rec->pc = prev_pc + uint64_t(zigzagDecode(raw));
    prev_pc = rec->pc;

    rec->vaddr = 0;
    if (tag & kGztHasVaddr) {
        used = getVarint(in + n, end, &raw);
        if (!used) {
            *error = "record truncated (vaddr delta)";
            return 0;
        }
        n += used;
        rec->vaddr = prev_vaddr + uint64_t(zigzagDecode(raw));
        prev_vaddr = rec->vaddr;
    }

    rec->stallCycles = 0;
    if (tag & kGztHasStall) {
        used = getVarint(in + n, end, &raw);
        if (!used) {
            *error = "record truncated (stall cycles)";
            return 0;
        }
        if (raw > UINT16_MAX) {
            *error = "corrupt record (stall cycles out of range)";
            return 0;
        }
        n += used;
        rec->stallCycles = static_cast<uint16_t>(raw);
    }

    rec->op = static_cast<TraceOp>(op);
    return n;
}

} // namespace

uint64_t
TraceFileHeader::payloadOffset() const
{
    return kGztFixedHeaderBytes + meta.size();
}

// ---- TraceWriter ----------------------------------------------------

TraceWriter::TraceWriter(const std::string &path_, std::string meta_)
    : path(path_), out(path_, std::ios::binary | std::ios::trunc)
{
    if (!out)
        GAZE_FATAL("cannot create trace file '", path, "'");
    GAZE_ASSERT(meta_.size() <= UINT32_MAX, "trace meta too long");

    // Placeholder header; finish() rewrites it with real totals. The
    // placeholder deliberately carries version 0 so an unfinished file
    // is rejected by probeTraceFile, not replayed short.
    uint8_t head[kGztFixedHeaderBytes] = {};
    putLe32(head + 0, kGztMagic);
    putLe32(head + 32, static_cast<uint32_t>(meta_.size()));
    out.write(reinterpret_cast<const char *>(head), sizeof(head));
    out.write(meta_.data(), static_cast<std::streamsize>(meta_.size()));
    if (!out)
        GAZE_FATAL("write failed on trace file '", path, "'");
    buffer.reserve(kIoChunkBytes + kMaxRecordBytes);
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::flushBuffer()
{
    if (buffer.empty())
        return;
    hash.update(buffer.data(), buffer.size());
    out.write(reinterpret_cast<const char *>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
    if (!out)
        GAZE_FATAL("write failed on trace file '", path, "'");
    buffer.clear();
}

void
TraceWriter::append(const TraceRecord &rec)
{
    GAZE_ASSERT(!finished, "append to a finished TraceWriter");
    uint8_t enc[kMaxRecordBytes];
    size_t n = encodeRecord(enc, rec, prevPc, prevVaddr);
    buffer.insert(buffer.end(), enc, enc + n);
    payloadBytes += n;
    ++count;
    if (buffer.size() >= kIoChunkBytes)
        flushBuffer();
}

void
TraceWriter::appendAll(const std::vector<TraceRecord> &recs)
{
    for (const auto &r : recs)
        append(r);
}

void
TraceWriter::finish()
{
    if (finished)
        return;
    finished = true;
    flushBuffer();

    uint8_t totals[28];
    putLe32(totals + 0, kGztVersion);
    putLe64(totals + 4, count);
    putLe64(totals + 12, payloadBytes);
    putLe64(totals + 20, hash.digest());
    out.seekp(4, std::ios::beg);
    out.write(reinterpret_cast<const char *>(totals), sizeof(totals));
    out.close();
    if (!out)
        GAZE_FATAL("finalizing trace file '", path, "' failed");
}

// ---- probe / validate -----------------------------------------------

namespace
{

bool
readHeader(std::ifstream &in, const std::string &path,
           TraceFileHeader *header, std::string *error)
{
    uint8_t head[kGztFixedHeaderBytes];
    in.read(reinterpret_cast<char *>(head), sizeof(head));
    if (in.gcount() != std::streamsize(sizeof(head))) {
        *error = path + ": truncated header (not a .gzt file?)";
        return false;
    }
    if (getLe32(head + 0) != kGztMagic) {
        *error = path + ": bad magic (not a .gzt trace file)";
        return false;
    }
    header->version = getLe32(head + 4);
    if (header->version != kGztVersion) {
        *error = path + ": unsupported .gzt version "
                 + std::to_string(header->version) + " (expected "
                 + std::to_string(kGztVersion)
                 + "; version 0 means an unfinished recording)";
        return false;
    }
    header->recordCount = getLe64(head + 8);
    header->payloadBytes = getLe64(head + 16);
    header->checksum = getLe64(head + 24);

    uint32_t meta_len = getLe32(head + 32);
    header->meta.resize(meta_len);
    if (meta_len) {
        in.read(header->meta.data(), meta_len);
        if (in.gcount() != std::streamsize(meta_len)) {
            *error = path + ": truncated meta string";
            return false;
        }
    }

    in.seekg(0, std::ios::end);
    uint64_t file_size = static_cast<uint64_t>(in.tellg());
    uint64_t want = header->payloadOffset() + header->payloadBytes;
    if (file_size != want) {
        *error = path + ": file size " + std::to_string(file_size)
                 + " does not match header (expected "
                 + std::to_string(want) + " bytes; truncated?)";
        return false;
    }
    return true;
}

} // namespace

bool
probeTraceFile(const std::string &path, TraceFileHeader *header,
               std::string *error)
{
    TraceFileHeader local;
    std::string local_err;
    TraceFileHeader *h = header ? header : &local;
    std::string *e = error ? error : &local_err;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *e = path + ": cannot open trace file";
        return false;
    }
    return readHeader(in, path, h, e);
}

bool
validateTraceFile(const std::string &path, TraceFileHeader *header,
                  std::string *error, TraceOpHistogram *histogram)
{
    TraceFileHeader local;
    std::string local_err;
    TraceFileHeader *h = header ? header : &local;
    std::string *e = error ? error : &local_err;

    if (!probeTraceFile(path, h, e))
        return false;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *e = path + ": cannot open trace file";
        return false;
    }
    in.seekg(static_cast<std::streamoff>(h->payloadOffset()));

    // Stream the payload through the same bounded buffer discipline
    // FileTrace uses, decoding every record and hashing every byte.
    std::vector<uint8_t> buf;
    buf.reserve(kIoChunkBytes + kMaxRecordBytes);
    Fnv1a hash;
    uint64_t records = 0, bytes = 0;
    PC prev_pc = 0;
    Addr prev_vaddr = 0;
    size_t pos = 0;
    bool eof = false;
    std::string reason;
    while (bytes < h->payloadBytes) {
        if (!eof && buf.size() - pos < kMaxRecordBytes) {
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<ptrdiff_t>(pos));
            pos = 0;
            size_t old = buf.size();
            buf.resize(old + kIoChunkBytes);
            in.read(reinterpret_cast<char *>(buf.data() + old),
                    kIoChunkBytes);
            size_t got = static_cast<size_t>(in.gcount());
            buf.resize(old + got);
            hash.update(buf.data() + old, got);
            eof = got < kIoChunkBytes;
        }
        TraceRecord rec;
        size_t used = decodeRecord(buf.data() + pos,
                                   buf.data() + buf.size(), &rec,
                                   prev_pc, prev_vaddr, &reason);
        if (!used) {
            *e = path + ": payload corrupt at record "
                 + std::to_string(records) + ": " + reason;
            return false;
        }
        pos += used;
        bytes += used;
        ++records;
        if (histogram)
            ++histogram->counts[static_cast<uint8_t>(rec.op)];
    }
    if (bytes != h->payloadBytes || pos != buf.size()) {
        *e = path + ": payload does not end on a record boundary";
        return false;
    }
    if (records != h->recordCount) {
        *e = path + ": decoded " + std::to_string(records)
             + " records but header says "
             + std::to_string(h->recordCount);
        return false;
    }
    if (hash.digest() != h->checksum) {
        *e = path + ": payload checksum mismatch (file corrupt)";
        return false;
    }
    return true;
}

// ---- FileTrace ------------------------------------------------------

FileTrace::FileTrace(const std::string &path_)
    : path(path_)
{
    std::string error;
    if (!probeTraceFile(path, &head, &error))
        GAZE_FATAL("unusable trace: ", error);
    in.open(path, std::ios::binary);
    if (!in)
        GAZE_FATAL("cannot open trace file '", path, "'");
    buffer.reserve(kIoChunkBytes + kMaxRecordBytes);
    reset();
}

void
FileTrace::reset()
{
    in.clear();
    in.seekg(static_cast<std::streamoff>(head.payloadOffset()));
    buffer.clear();
    bufPos = 0;
    bufLen = 0;
    consumed = 0;
    delivered = 0;
    prevPc = 0;
    prevVaddr = 0;
}

bool
FileTrace::fill(size_t need)
{
    if (bufLen - bufPos >= need)
        return true;
    buffer.erase(buffer.begin(), buffer.begin()
                                     + static_cast<ptrdiff_t>(bufPos));
    bufLen -= bufPos;
    bufPos = 0;
    uint64_t left = head.payloadBytes - consumed - bufLen;
    size_t want = left < kIoChunkBytes ? static_cast<size_t>(left)
                                       : kIoChunkBytes;
    if (want) {
        buffer.resize(bufLen + want);
        in.read(reinterpret_cast<char *>(buffer.data() + bufLen),
                static_cast<std::streamsize>(want));
        size_t got = static_cast<size_t>(in.gcount());
        buffer.resize(bufLen + got);
        bufLen += got;
    }
    return bufLen - bufPos >= need;
}

bool
FileTrace::next(TraceRecord &out)
{
    if (delivered >= head.recordCount)
        return false;
    fill(kMaxRecordBytes); // best effort; short near end-of-payload
    size_t used = decodeRecord(buffer.data() + bufPos,
                               buffer.data() + bufLen, &out, prevPc,
                               prevVaddr, &decodeError);
    if (!used)
        GAZE_FATAL("trace file '", path, "' record ", delivered, ": ",
                   decodeError, " (file changed since probe?)");
    bufPos += used;
    consumed += used;
    ++delivered;
    return true;
}

std::string
traceFileName(const std::string &workload)
{
    return workload + ".gzt";
}

std::string
traceCacheKeyFromHeader(const TraceFileHeader &header)
{
    char buf[80];
    std::snprintf(buf, sizeof(buf), "gzt:v%u:%llu:%016llx",
                  header.version,
                  static_cast<unsigned long long>(header.recordCount),
                  static_cast<unsigned long long>(header.checksum));
    return buf;
}

std::string
traceCacheKey(const std::string &path)
{
    TraceFileHeader head;
    std::string error;
    if (!probeTraceFile(path, &head, &error))
        GAZE_FATAL("cannot derive cache key: ", error);
    return traceCacheKeyFromHeader(head);
}

} // namespace gaze
