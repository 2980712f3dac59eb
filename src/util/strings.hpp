// Small string helpers used by the parsers (RPSL, delegation files, SBL text).
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace droplens::util {

/// Split `s` on `sep`, keeping empty fields ("a||b" -> {"a","","b"}).
std::vector<std::string_view> split(std::string_view s, char sep);

/// Split `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string_view> split_ws(std::string_view s);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// True if `haystack` contains `needle` case-insensitively (ASCII).
bool icontains(std::string_view haystack, std::string_view needle);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a non-negative integer; throws ParseError on junk or overflow.
unsigned long parse_u64(std::string_view s);

/// Parse all of `s` as a decimal number of type T in [lo, hi]: the strict
/// parser behind the numeric flags of droplensd, full_report and
/// snapshot_tool. No whitespace, no trailing bytes, no sign on unsigned
/// types, no overflow, no NaN; anything else throws ParseError naming the
/// value and the range. Instantiated for the fixed-width integer types and
/// double.
template <typename T>
T parse_number(std::string_view s, T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max());

}  // namespace droplens::util
