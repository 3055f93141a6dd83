/**
 * @file
 * The one strict decimal parse for text that names a count: command
 * line flag values (driver/cli) and prefetcher option values
 * (prefetchers/registry). Each caller words its own diagnostic and
 * checks its own range.
 */

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace gaze
{

/**
 * Parse @p text as an unsigned decimal into @p out: digits only (no
 * sign, which strtoull would silently wrap, no blanks, no exponent)
 * and no overflow. Returns false, leaving @p out alone, otherwise.
 */
inline bool
parseDecimal(const std::string &text, uint64_t *out)
{
    if (text.empty())
        return false;
    for (char c : text)
        if (c < '0' || c > '9')
            return false;
    errno = 0;
    unsigned long long n = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return false;
    *out = n;
    return true;
}

} // namespace gaze
