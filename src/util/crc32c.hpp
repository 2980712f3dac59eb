// CRC32C (Castagnoli) checksum.
//
// The snapshot persistence layer (svc/snapshot_io.hpp) checksums its header
// and every segment blob so a loader that mmaps attacker-influenceable bytes
// can reject corruption before trusting any of them. CRC32C rather than
// plain CRC32: the Castagnoli polynomial has better error-detection
// properties for storage payloads and is the one x86 computes in hardware.
// On x86-64 CPUs that report SSE4.2, crc32c() runs the `crc32` instruction
// eight bytes at a time (the CPU is checked once, at run time); elsewhere it
// is the byte-at-a-time table loop, kept as crc32c_reference().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace droplens::util {

/// CRC32C of `len` bytes at `data`. `seed` chains partial computations:
/// crc32c(ab) == crc32c(b, crc32c(a)).
uint32_t crc32c(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t crc32c(std::string_view data, uint32_t seed = 0) {
  return crc32c(data.data(), data.size(), seed);
}

/// Reference twin: the portable table loop, bit-identical to crc32c() and
/// interchangeable with it in a seed chain. The tests' oracle.
uint32_t crc32c_reference(const void* data, size_t len, uint32_t seed = 0);

}  // namespace droplens::util
