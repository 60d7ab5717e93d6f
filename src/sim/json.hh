/**
 * @file
 * The one JSON string escaper shared by every JSON writer (stats dumps,
 * Chrome traces, litmus and axiom reports).
 */

#ifndef WO_SIM_JSON_HH
#define WO_SIM_JSON_HH

#include <cstdio>
#include <string>

namespace wo {

/** @p s as the body of a JSON string literal: quotes, backslashes and
 * every control character escaped (\n, \r and \t by name, the rest as
 * \u00XX), so any input yields valid JSON. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
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
    return out;
}

} // namespace wo

#endif // WO_SIM_JSON_HH
