#include "common/json.hh"

#include <cstdio>
#include <fstream>

namespace tpcp
{

void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out += buf;
}

void
appendKey(std::string &out, const char *key)
{
    out += '"';
    out += key;
    out += "\": ";
}

bool
writeJsonFile(const std::string &path, const std::string &json)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << json;
    return static_cast<bool>(file.flush());
}

} // namespace tpcp
