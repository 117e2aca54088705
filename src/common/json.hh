/**
 * @file
 * The repository's one JSON writer. Every machine-readable report —
 * adapt, fault, sample and serve — is built from these helpers, so
 * each report's toJson() is nothing but its own field list, and all
 * of them escape, format and lay out the same way:
 *
 *  - strings are quoted and escaped (quote, backslash, newline, tab,
 *    other control characters as \\u00XX);
 *  - doubles print as %.10g: enough digits that byte-identical runs
 *    give byte-identical JSON, without full round-trip noise;
 *  - unsigned integers print in decimal, bools as true/false;
 *  - an object's fields are `"key": value` joined by ", ";
 *  - a report list is an array with one object per line:
 *    "[\n  {...},\n  {...}\n]\n".
 */

#ifndef TPCP_COMMON_JSON_HH
#define TPCP_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tpcp
{

/** Appends @p s as a quoted, escaped JSON string. */
void appendEscaped(std::string &out, std::string_view s);

/** Appends @p v formatted as %.10g. */
void appendNumber(std::string &out, double v);

/** Appends `"key": ` — the caller appends the value. */
void appendKey(std::string &out, const char *key);

/** Appends `"key": value` and, unless @p last, the ", " separator.
 * @p value is a string, a double, a bool or an unsigned integer. */
template <typename T>
void
appendField(std::string &out, const char *key, const T &value,
            bool last = false)
{
    appendKey(out, key);
    if constexpr (std::is_same_v<T, bool>)
        out += value ? "true" : "false";
    else if constexpr (std::is_floating_point_v<T>)
        appendNumber(out, value);
    else if constexpr (std::is_unsigned_v<T>)
        out += std::to_string(value);
    else
        appendEscaped(out, value);
    if (!last)
        out += ", ";
}

/**
 * Lays @p records out as a report list, one toJson(record) object
 * per line. toJson is found by argument-dependent lookup in the
 * record's own namespace.
 */
template <typename Record>
std::string
toJsonLines(const std::vector<Record> &records)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        out += "  ";
        out += toJson(records[i]);
        out += i + 1 < records.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

/** Writes @p json to @p path and flushes it; false on any I/O
 * error. */
bool writeJsonFile(const std::string &path, const std::string &json);

} // namespace tpcp

#endif // TPCP_COMMON_JSON_HH
