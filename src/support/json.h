/**
 * @file
 * The JSON value writers every report in the library shares.
 */

#ifndef BALIGN_SUPPORT_JSON_H
#define BALIGN_SUPPORT_JSON_H

#include <cstdint>
#include <ostream>
#include <string_view>

namespace balign {

/// Writes @p text as a quoted JSON string: `"` and `\` are escaped, and
/// so is every control character below 0x20 (`\n`, `\t` and `\r` by name,
/// the rest as `\u00XX`). Other bytes, UTF-8 included, pass through.
void writeJsonString(std::string_view text, std::ostream &os);

/// Writes `"key":value`, or `"key":null` when @p value is @p sentinel.
void writeJsonOptionalId(const char *key, std::uint64_t value,
                         std::uint64_t sentinel, std::ostream &os);

}  // namespace balign

#endif  // BALIGN_SUPPORT_JSON_H
