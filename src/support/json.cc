#include "support/json.h"

#include <cstdio>

namespace balign {

void
writeJsonString(std::string_view text, std::ostream &os)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeJsonOptionalId(const char *key, std::uint64_t value,
                    std::uint64_t sentinel, std::ostream &os)
{
    os << '"' << key << "\":";
    if (value == sentinel)
        os << "null";
    else
        os << value;
}

}  // namespace balign
