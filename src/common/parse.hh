/**
 * @file
 * Strict parsing of numbers given on a command line.
 */

#ifndef TPCP_COMMON_PARSE_HH
#define TPCP_COMMON_PARSE_HH

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tpcp
{

/**
 * True when all of @p text, and nothing else, is a @p T: decimal, no
 * blanks, no sign for an unsigned T, in range, and finite for a
 * floating-point T. @p value is unspecified when false.
 */
template <typename T>
bool
parseAll(std::string_view text, T &value)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>)
        return std::isfinite(value);
    return true;
}

} // namespace tpcp

#endif // TPCP_COMMON_PARSE_HH
