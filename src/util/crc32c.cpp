#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define DROPLENS_CRC32C_SSE42 1
#endif

namespace droplens::util {

namespace {

// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> make_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = make_table();

#ifdef DROPLENS_CRC32C_SSE42
// The `crc32` instruction computes the same reflected CRC32C step; a
// little-endian 8-byte load feeds it bytes in stream order.
__attribute__((target("sse4.2"))) uint32_t crc32c_sse42(
    const unsigned char* p, size_t len, uint32_t seed) {
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool cpu_has_sse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

uint32_t crc32c_reference(const void* data, size_t len, uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t crc32c(const void* data, size_t len, uint32_t seed) {
#ifdef DROPLENS_CRC32C_SSE42
  if (cpu_has_sse42()) {
    return crc32c_sse42(static_cast<const unsigned char*>(data), len, seed);
  }
#endif
  return crc32c_reference(data, len, seed);
}

}  // namespace droplens::util
