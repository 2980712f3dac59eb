// On-disk persistence for svc::Snapshot — the mmap-able `.dls` format.
//
// A snapshot is already flat (sorted interval and segment arrays), so the
// file is exactly those arrays behind a fixed, checksummed header. All
// integers are little-endian; every segment offset is 8-byte aligned, so a
// page-aligned mmap base keeps every array properly aligned for its element
// type.
//
//   offset  field
//   ------  -------------------------------------------------------------
//   0       magic            "DLSNAP\r\n" (8 bytes; \r\n catches ASCII-mode
//                            transfer mangling, the PNG trick)
//   8       format_version   uint32, kSnapshotFormatVersion
//   12      header_crc32c    uint32 — CRC32C of the 208-byte header with
//                            this field zeroed
//   16      date_days        int32, net::Date::days()
//   20      degraded         uint8 per-feed degradation bits + 3 zero bytes
//   24      writer_version   uint64 — snapshot version at save time
//                            (informational: loaders assign their own, see
//                            SnapshotStore's monotonic counter)
//   32      file_length      uint64 — total file size, audited on load
//   40      segments[7]      SegmentDesc each: offset u64, length u64,
//                            crc32c u32, elem_size u32
//   208     payload          the seven arrays back to back, header order:
//                            routed/as0/irr/allocated  Interval[] (16 B)
//                            drop  Segment<DropInfo>[] (24 B)
//                            rov   Segment<uint8_t>[]  (24 B)
//                            rir   Segment<uint8_t>[]  (24 B)
//
// The writer is deterministic: equal snapshot contents produce identical
// bytes (struct padding is explicitly zeroed), for any thread count the
// compile ran with — so repeated saves are byte-stable and a file's CRC
// pins its content.
//
// The loader mmaps the file and validates everything before trusting any of
// it: magic, version, header CRC, exact layout accounting (each segment
// must start where the previous one ended and the last must end at EOF, so
// oversized declared lengths cannot over-allocate — the loader never
// allocates payload at all), per-segment CRC32C, structural invariants
// (sorted, disjoint, in-bounds arrays) and value ranges. Only then does it
// build a Snapshot whose IntervalSets / SegmentMaps are zero-copy views
// over the mapped arrays; the mapping lives exactly as long as the returned
// shared_ptr's control block. Every rejection is a typed
// SnapshotFormatError — hostile bytes must never crash the loader (see
// tests/test_snapshot_io.cpp, ctest label `persist`).
//
// Delta files (format_version 2) store day N as patches over a declared
// base day (normally N-1), so a whole study window costs a fraction of the
// all-keyframe size — consecutive days share almost all of their interval
// structure. Same magic, 216-byte header (adds base_date_days after the
// keyframe fields), same strict sequential segment accounting; each of the
// seven segments is now a byte stream (elem_size 1):
//
//   patch := new_count:u64 new_crc32c:u32 op_count:u32 op_count * op
//   op    := 0x00 base_start:u32 count:u32         copy base elements
//          | 0x01 count:u32 count * element bytes  literal new elements
//
// Ops replay left to right and must produce exactly new_count elements in
// the segment's canonical serialized encoding (the bytes serialize_snapshot
// would emit); new_crc32c pins the reconstruction end to end — applying a
// patch over the wrong base bytes fails the CRC before any invariant check.
// A version-1 loader rejects delta files cleanly with kBadVersion, so the
// formats coexist in one directory; keyframe loads stay zero-copy mmap
// while a delta load materializes owned arrays (base must be resolved
// first — SnapshotStore walks the base chain, snapshot_tool expands it).
//
// Both kinds validate, read and seal through one header path templated on
// the header type, so every check and every SnapshotIoError above applies
// to both in the same order. They differ in exactly three ways: the format
// version, each segment's element size (16/24, or 1 for patch bytes), and
// the delta's base date, which must be earlier than its own (checked after
// the degraded bits, before the segment layout).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "svc/snapshot.hpp"
#include "util/error.hpp"

namespace droplens::svc {

// The format commits to little-endian integers and to the host's in-memory
// array layouts (asserted below); a big-endian port needs a byte-swapping
// loader and a format_version bump.
static_assert(std::endian::native == std::endian::little,
              "the .dls snapshot format requires a little-endian host");

/// Why a snapshot file was rejected. Ordered by validation stage: each code
/// can only be reported once every earlier stage passed.
enum class SnapshotIoError : uint8_t {
  kIo,           // open/stat/mmap/write syscall failure
  kTruncated,    // shorter than the header, or than the declared length
  kBadMagic,
  kBadVersion,   // format version this build doesn't speak
  kBadHeaderCrc,
  kBadLayout,    // segment table inconsistent with the file's real shape
  kBadSegmentCrc,
  kBadInvariant, // payload arrays violate structural/value invariants
};

std::string_view to_string(SnapshotIoError code);

/// The loader's and writer's only exception type (beyond OOM).
class SnapshotFormatError : public ParseError {
 public:
  SnapshotFormatError(SnapshotIoError code, const std::string& what)
      : ParseError(what), code_(code) {}

  SnapshotIoError code() const { return code_; }

 private:
  SnapshotIoError code_;
};

namespace detail {

/// Narrowing guard for the format's u32 wire fields (patch-op indexes and
/// counts). IPv4 bounds keep every real segment array under 2^32 elements,
/// so the fields are wide enough — but a writer handed a violating array
/// must fail loudly here, never wrap silently into a valid-looking patch.
inline uint32_t checked_u32(uint64_t v, const char* what) {
  if (v > UINT32_MAX) {
    throw SnapshotFormatError(
        SnapshotIoError::kBadInvariant,
        std::string("svc: ") + what + " overflows a u32 wire field");
  }
  return static_cast<uint32_t>(v);
}

}  // namespace detail

inline constexpr char kSnapshotMagic[8] = {'D', 'L', 'S', 'N',
                                           'A', 'P', '\r', '\n'};
inline constexpr uint32_t kSnapshotFormatVersion = 1;
/// Delta files share the magic; the version field tells the kinds apart.
inline constexpr uint32_t kSnapshotDeltaFormatVersion = 2;
inline constexpr size_t kSnapshotSegmentCount = 7;

/// Names of the seven payload segments, in file order.
enum class SnapshotSegment : uint8_t {
  kRouted = 0,
  kAs0 = 1,
  kIrr = 2,
  kAllocated = 3,
  kDrop = 4,
  kRov = 5,
  kRir = 6,
};

std::string_view to_string(SnapshotSegment s);

struct SegmentDesc {
  uint64_t offset;     // from file start; 8-byte aligned
  uint64_t length;     // bytes; multiple of elem_size
  uint32_t crc32c;     // CRC32C of the segment's bytes
  uint32_t elem_size;  // bytes per element (16 or 24)

  uint64_t count() const { return elem_size ? length / elem_size : 0; }
};

struct SnapshotHeader {
  char magic[8];
  uint32_t format_version;
  uint32_t header_crc32c;
  int32_t date_days;
  uint8_t degraded;
  uint8_t reserved[3];  // zero; covered by header_crc32c
  uint64_t writer_version;
  uint64_t file_length;
  SegmentDesc segments[kSnapshotSegmentCount];
};

/// Header of a delta file: the keyframe fields plus the base day the
/// patches apply over. Segment descriptors describe the patch byte streams
/// (elem_size 1), not the reconstructed arrays.
struct SnapshotDeltaHeader {
  char magic[8];
  uint32_t format_version;  // kSnapshotDeltaFormatVersion
  uint32_t header_crc32c;   // CRC32C of this header with the field zeroed
  int32_t date_days;
  uint8_t degraded;
  uint8_t reserved[3];    // zero; covered by header_crc32c
  int32_t base_date_days;  // strictly earlier than date_days
  uint32_t reserved2;      // zero; covered by header_crc32c
  uint64_t writer_version;
  uint64_t file_length;
  SegmentDesc segments[kSnapshotSegmentCount];
};

// The golden-file test (tests/test_snapshot_io.cpp) pins these layout facts
// against checked-in bytes; the static_asserts pin them against the
// compiler. An accidental struct change fails here before it fails CI.
static_assert(sizeof(SegmentDesc) == 24);
static_assert(sizeof(SnapshotHeader) == 208);
static_assert(offsetof(SnapshotHeader, magic) == 0);
static_assert(offsetof(SnapshotHeader, format_version) == 8);
static_assert(offsetof(SnapshotHeader, header_crc32c) == 12);
static_assert(offsetof(SnapshotHeader, date_days) == 16);
static_assert(offsetof(SnapshotHeader, degraded) == 20);
static_assert(offsetof(SnapshotHeader, writer_version) == 24);
static_assert(offsetof(SnapshotHeader, file_length) == 32);
static_assert(offsetof(SnapshotHeader, segments) == 40);
static_assert(sizeof(SnapshotDeltaHeader) == 216);
static_assert(offsetof(SnapshotDeltaHeader, base_date_days) == 24);
static_assert(offsetof(SnapshotDeltaHeader, writer_version) == 32);
static_assert(offsetof(SnapshotDeltaHeader, file_length) == 40);
static_assert(offsetof(SnapshotDeltaHeader, segments) == 48);

/// Serialize `snap` to the `.dls` byte layout. Deterministic: equal
/// snapshot contents yield identical bytes.
std::string serialize_snapshot(const Snapshot& snap);

/// serialize_snapshot + atomic file replace (write to `path`.tmp, rename).
/// Throws SnapshotFormatError(kIo) on any filesystem failure.
void save_snapshot(const Snapshot& snap, const std::string& path);

/// mmap `path`, validate it fully, and return a Snapshot viewing the mapped
/// arrays without copying them. `version` is the version the returned
/// snapshot reports — version assignment belongs to the caller (normally a
/// SnapshotStore's monotonic counter), not to the file, so that distinct
/// snapshots in one process never share a version. Throws
/// SnapshotFormatError on any defect.
std::shared_ptr<const Snapshot> load_snapshot(const std::string& path,
                                              uint64_t version);

/// Read and validate `path`'s header only (magic, version, CRC, layout
/// accounting against the real file size) without touching payload bytes —
/// what `snapshot_tool inspect` prints. Throws SnapshotFormatError.
SnapshotHeader read_snapshot_header(const std::string& path);

/// What kind of .dls file `path` is, from its magic and version fields
/// alone. Throws SnapshotFormatError on a missing/short file, bad magic, or
/// a version this build doesn't speak.
enum class SnapshotFileKind : uint8_t { kKeyframe, kDelta };
SnapshotFileKind snapshot_file_kind(const std::string& path);

/// Serialize `snap` as a delta over `base` (both must carry real dates,
/// base strictly earlier). Deterministic like serialize_snapshot; the
/// output is typically a few percent of the keyframe size for consecutive
/// days. Throws InvariantError on a non-earlier base.
std::string serialize_snapshot_delta(const Snapshot& snap,
                                     const Snapshot& base);

/// serialize_snapshot_delta + atomic file replace.
void save_snapshot_delta(const Snapshot& snap, const Snapshot& base,
                         const std::string& path);

/// Load a delta file by applying its patches over `base`, which must be the
/// snapshot of the file's declared base date (checked; a content mismatch
/// beyond the date is caught by the reconstruction CRC). The result owns
/// its arrays — no mapping outlives the call. Throws SnapshotFormatError.
std::shared_ptr<const Snapshot> load_snapshot_delta(const std::string& path,
                                                    const Snapshot& base,
                                                    uint64_t version);

/// Header-only read+validate of a delta file (the store uses it to learn
/// the base date before resolving the chain). Throws SnapshotFormatError.
SnapshotDeltaHeader read_snapshot_delta_header(const std::string& path);

}  // namespace droplens::svc
