/**
 * @file
 * Strict parsing for command-line and spec values: digits only, so a
 * sign, a space, a suffix or an overflow is an error, never a wrapped
 * or truncated number; and lists split without dropping pieces.
 */

#ifndef SMTP_COMMON_PARSE_HPP
#define SMTP_COMMON_PARSE_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace smtp
{

/**
 * Parse @p s, decimal digits only, into @p out. False, leaving @p out
 * untouched, when @p s is empty, holds anything else, or names a value
 * above @p max.
 */
template <class T>
bool
parseDigits(std::string_view s, T &out,
            std::uint64_t max = std::numeric_limits<T>::max())
{
    std::uint64_t n = 0;
    for (char c : s) {
        auto d = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' || d > max || n > (max - d) / 10)
            return false;
        n = n * 10 + d;
    }
    if (s.empty())
        return false;
    out = static_cast<T>(n);
    return true;
}

/**
 * Split a @p sep-separated list, keeping empty pieces ("a,,b" has
 * three), so a stray separator reaches the caller's checks.
 */
inline std::vector<std::string>
splitList(std::string_view s, char sep = ',')
{
    std::vector<std::string> out;
    for (std::size_t start = 0;; ) {
        std::size_t at = s.find(sep, start);
        out.emplace_back(s.substr(start, at - start));
        if (at == std::string_view::npos)
            return out;
        start = at + 1;
    }
}

} // namespace smtp

#endif // SMTP_COMMON_PARSE_HPP
