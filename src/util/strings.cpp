#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>

#include "util/error.hpp"

namespace droplens::util {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  auto ieq = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) ==
           std::tolower(static_cast<unsigned char>(b));
  };
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end(), ieq);
  return it != haystack.end();
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

unsigned long parse_u64(std::string_view s) {
  unsigned long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || s.empty()) {
    throw ParseError("not a non-negative integer: '" + std::string(s) + "'");
  }
  return value;
}

namespace {

template <typename T>
std::string number_text(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

template <typename T>
T parse_number(std::string_view s, T lo, T hi) {
  T value{};
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), last, value);
  // Negated so NaN, which compares false both ways, is out of range.
  if (ec != std::errc() || ptr != last || !(lo <= value && value <= hi)) {
    throw ParseError("not a number in [" + number_text(lo) + ", " +
                     number_text(hi) + "]: '" + std::string(s) + "'");
  }
  return value;
}

template uint16_t parse_number(std::string_view, uint16_t, uint16_t);
template int32_t parse_number(std::string_view, int32_t, int32_t);
template uint32_t parse_number(std::string_view, uint32_t, uint32_t);
template int64_t parse_number(std::string_view, int64_t, int64_t);
template uint64_t parse_number(std::string_view, uint64_t, uint64_t);
template double parse_number(std::string_view, double, double);

}  // namespace droplens::util
