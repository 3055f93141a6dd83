/**
 * @file
 * Minimal gem5-style status/error reporting: panic() for internal
 * invariant violations, fatal() for unusable user configuration, warn()
 * for suspicious-but-survivable conditions.
 */

#pragma once

#include <sstream>
#include <string>

namespace gaze
{

/** Abort with a message: an internal simulator bug (never user error). */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Exit(1) with a message: invalid configuration or arguments. */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Print a warning to stderr and continue. */
void warnImpl(const char *file, int line, const std::string &msg);

namespace detail
{

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
formatAll(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

/**
 * Store a non-fatal parser's diagnostic and return false:
 * `return failWith(error, "unknown suite '", s, "'");`. The words are
 * formatted exactly as GAZE_FATAL formats them, so a fatal wrapper that
 * prints @p error prints what the parser said.
 */
template <typename... Args>
bool
failWith(std::string *error, const Args &...args)
{
    *error = detail::formatAll(args...);
    return false;
}

} // namespace gaze

#define GAZE_PANIC(...) \
    ::gaze::panicImpl(__FILE__, __LINE__, ::gaze::detail::formatAll(__VA_ARGS__))

#define GAZE_FATAL(...) \
    ::gaze::fatalImpl(__FILE__, __LINE__, ::gaze::detail::formatAll(__VA_ARGS__))

#define GAZE_WARN(...) \
    ::gaze::warnImpl(__FILE__, __LINE__, ::gaze::detail::formatAll(__VA_ARGS__))

/** Panic when @p cond does not hold; use for internal invariants. */
#define GAZE_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            GAZE_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)
