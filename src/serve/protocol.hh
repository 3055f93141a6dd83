/**
 * @file
 * Wire protocol of the gaze_serve daemon: newline-delimited JSON over
 * a local stream socket, one complete document per line in either
 * direction, parsed with campaign/json and emitted with JsonWriter.
 *
 * Requests (client -> server):
 *   {"op":"submit","priority":N,"spec":{...campaign spec...}}
 *   {"op":"status"}
 *   {"op":"shutdown"}
 *
 * Events (server -> client), keyed by "event":
 *   accepted  submission id + cells/cached/shared/enqueued counts
 *   rejected  admission or validation refusal, with a reason
 *   progress  one finished cell: done/total + label + seconds
 *   report    the finished submission's report + CSV documents
 *   status    live service counters + per-submission progress
 *   error     a submission failed (cell simulation threw)
 *   bye       shutdown acknowledged; the daemon drains and exits
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "campaign/json.hh"

namespace gaze
{

class JsonWriter;

namespace serve
{

/** One parsed client request line. */
struct Request
{
    enum class Op
    {
        Submit,
        Status,
        Shutdown
    };

    Op op = Op::Status;
    JsonValue spec;       ///< Submit only: the inline spec document
    int64_t priority = 0; ///< Submit only: higher schedules earlier
};

/** Highest priority a submission may request (and the negated floor). */
constexpr int64_t kMaxPriority = 1'000'000;

/**
 * Longest request line the daemon reads, in bytes, newline excluded.
 * A longer line is refused with a rejected event and its connection
 * closed, so one client cannot grow the daemon's input buffer without
 * bound. Inline specs are a few KiB; this leaves ample headroom.
 */
constexpr size_t kMaxRequestLine = size_t(1) << 20;

/**
 * Parse one request line. Returns false with a client-facing reason on
 * anything malformed — the daemon must never die on client input.
 */
bool parseRequest(const std::string &line, Request *out,
                  std::string *why);

/**
 * Re-serialize @p v compactly (single line, JsonWriter escaping) into
 * an already-positioned writer slot. Embedding a client's spec file —
 * which may span many lines — into a one-line request needs this.
 */
void writeJsonValue(JsonWriter &j, const JsonValue &v);

// ----------------------------------------- requests (client side)

std::string encodeSubmit(const JsonValue &spec, int64_t priority);
std::string encodeStatus();
std::string encodeShutdown();

// ------------------------------------------- events (server side)

std::string eventAccepted(uint64_t submission, uint64_t cells,
                          uint64_t cached, uint64_t shared,
                          uint64_t enqueued);
std::string eventRejected(const std::string &reason);
std::string eventProgress(uint64_t submission, uint64_t done,
                          uint64_t total, const std::string &label,
                          double seconds);
std::string eventReport(uint64_t submission, const std::string &name,
                        const std::string &reportJson,
                        const std::string &csv);
std::string eventError(uint64_t submission,
                       const std::string &message);
std::string eventBye();

} // namespace serve
} // namespace gaze
