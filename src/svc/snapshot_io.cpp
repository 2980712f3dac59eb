#include "svc/snapshot_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/data_quality.hpp"
#include "drop/category.hpp"
#include "net/interval_set.hpp"
#include "net/segment_map.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "rir/rir.hpp"
#include "util/crc32c.hpp"

namespace droplens::svc {

namespace {

using net::IntervalSet;
using Interval = IntervalSet::Interval;
using DropSegment = net::SegmentMap<Snapshot::DropInfo>::Segment;
using ByteSegment = net::SegmentMap<uint8_t>::Segment;

// The zero-copy contract: the on-disk element layouts are exactly the
// in-memory ones, so a view over mapped bytes is a view over real arrays.
// The writer zeroes padding explicitly; these asserts pin the layouts.
static_assert(std::is_trivially_copyable_v<Interval>);
static_assert(sizeof(Interval) == 16 && alignof(Interval) == 8);
static_assert(offsetof(Interval, end) == 8);
static_assert(std::is_trivially_copyable_v<DropSegment>);
static_assert(sizeof(DropSegment) == 24 && alignof(DropSegment) == 8);
static_assert(offsetof(DropSegment, value) == 16);
static_assert(sizeof(Snapshot::DropInfo) == 2);
static_assert(offsetof(Snapshot::DropInfo, incident) == 1);
static_assert(std::is_trivially_copyable_v<ByteSegment>);
static_assert(sizeof(ByteSegment) == 24 && alignof(ByteSegment) == 8);
static_assert(offsetof(ByteSegment, value) == 16);

constexpr uint32_t kElemSizes[kSnapshotSegmentCount] = {
    sizeof(Interval),    sizeof(Interval),    sizeof(Interval),
    sizeof(Interval),    sizeof(DropSegment), sizeof(ByteSegment),
    sizeof(ByteSegment),
};

/// Bits of Snapshot::degraded() that can be set: one per core::Feed.
constexpr uint8_t kFeedMask =
    static_cast<uint8_t>((1u << core::kFeedCount) - 1);
/// Bits a DropInfo::categories byte can carry: one per drop::Category.
constexpr uint8_t kCategoryMask =
    static_cast<uint8_t>((1u << drop::kAllCategories.size()) - 1);

[[noreturn]] void fail(SnapshotIoError code, const std::string& what) {
  throw SnapshotFormatError(code, "snapshot_io: " + what);
}

// --- the two header kinds --------------------------------------------------
//
// Keyframes (SnapshotHeader) and deltas (SnapshotDeltaHeader) validate, read
// and seal through the same templates below. They differ in exactly three
// ways, each a compile-time branch on the header type: the format version,
// each segment's element size (array elements, or 1 for patch bytes), and
// the delta's rule that its base date is earlier than its own.

template <typename H>
constexpr bool kIsDelta = std::is_same_v<H, SnapshotDeltaHeader>;

template <typename H>
constexpr uint32_t kFormatVersion =
    kIsDelta<H> ? kSnapshotDeltaFormatVersion : kSnapshotFormatVersion;

/// Bytes per element of segment i: patch streams are byte streams.
template <typename H>
constexpr uint32_t elem_size(size_t i) {
  return kIsDelta<H> ? 1 : kElemSizes[i];
}

/// CRC32C of the header with its own CRC field zeroed.
template <typename H>
uint32_t header_crc(const H& h) {
  H copy = h;
  copy.header_crc32c = 0;
  return util::crc32c(&copy, sizeof(copy));
}

// --- writer ----------------------------------------------------------------

void append_intervals(std::string& out, std::span<const Interval> ivs) {
  // Interval has no padding; a straight byte copy is deterministic.
  out.append(reinterpret_cast<const char*>(ivs.data()), ivs.size_bytes());
}

void append_drop_segments(std::string& out,
                          std::span<const DropSegment> segs) {
  for (const DropSegment& s : segs) {
    char buf[sizeof(DropSegment)] = {};  // zero the 6 padding bytes
    std::memcpy(buf + 0, &s.begin, sizeof(s.begin));
    std::memcpy(buf + 8, &s.end, sizeof(s.end));
    buf[16] = static_cast<char>(s.value.categories);
    buf[17] = static_cast<char>(s.value.incident);
    out.append(buf, sizeof(buf));
  }
}

void append_byte_segments(std::string& out,
                          std::span<const ByteSegment> segs) {
  for (const ByteSegment& s : segs) {
    char buf[sizeof(ByteSegment)] = {};  // zero the 7 padding bytes
    std::memcpy(buf + 0, &s.begin, sizeof(s.begin));
    std::memcpy(buf + 8, &s.end, sizeof(s.end));
    buf[16] = static_cast<char>(s.value);
    out.append(buf, sizeof(buf));
  }
}

/// Append segment i's canonical serialized bytes — the keyframe payload
/// for it (zeroed padding), whatever mix of owned and view structures the
/// snapshot holds.
void append_segment(std::string& out, const Snapshot& snap, size_t i) {
  switch (static_cast<SnapshotSegment>(i)) {
    case SnapshotSegment::kRouted:
      append_intervals(out, snap.routed().intervals());
      break;
    case SnapshotSegment::kAs0:
      append_intervals(out, snap.as0().intervals());
      break;
    case SnapshotSegment::kIrr:
      append_intervals(out, snap.irr().intervals());
      break;
    case SnapshotSegment::kAllocated:
      append_intervals(out, snap.allocated().intervals());
      break;
    case SnapshotSegment::kDrop:
      append_drop_segments(out, snap.drop().segments());
      break;
    case SnapshotSegment::kRov:
      append_byte_segments(out, snap.rov().segments());
      break;
    case SnapshotSegment::kRir:
      append_byte_segments(out, snap.rir().segments());
      break;
  }
}

std::string encode_segment(const Snapshot& snap, size_t i) {
  std::string out;
  append_segment(out, snap, i);
  return out;
}

/// Assemble a file of `h`'s kind: fill the header fields both kinds share
/// from `snap`, let append_fn(out, i) append each segment's bytes in file
/// order, describe each in the segment table, and seal the header CRC. Any
/// kind-specific field (the delta's base date) arrives already set in `h`.
template <typename H, typename AppendFn>
std::string seal_file(H h, const Snapshot& snap, AppendFn&& append_fn) {
  std::memcpy(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  h.format_version = kFormatVersion<H>;
  h.date_days = snap.date().days();
  h.degraded = snap.degraded();
  h.writer_version = snap.version();

  std::string out(sizeof(H), '\0');
  for (size_t i = 0; i < kSnapshotSegmentCount; ++i) {
    const size_t begin = out.size();
    append_fn(out, i);
    SegmentDesc& sd = h.segments[i];
    sd.offset = begin;
    sd.length = out.size() - begin;
    sd.crc32c = util::crc32c(out.data() + begin, sd.length);
    sd.elem_size = elem_size<H>(i);
  }
  h.file_length = out.size();
  h.header_crc32c = header_crc(h);
  std::memcpy(out.data(), &h, sizeof(h));
  return out;
}

void write_file_atomically(const std::string& bytes, const std::string& path) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    fail(SnapshotIoError::kIo,
         "open '" + tmp + "' for write: " + std::strerror(errno));
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    fail(SnapshotIoError::kIo, "write '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    fail(SnapshotIoError::kIo,
         "rename '" + tmp + "' -> '" + path + "': " + std::strerror(err));
  }
}

// --- mmap ------------------------------------------------------------------

class MappedFile {
 public:
  static MappedFile open(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      fail(SnapshotIoError::kIo,
           "open '" + path + "': " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      fail(SnapshotIoError::kIo,
           "fstat '" + path + "': " + std::strerror(err));
    }
    size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      fail(SnapshotIoError::kTruncated, "'" + path + "' is empty");
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    if (base == MAP_FAILED) {
      fail(SnapshotIoError::kIo,
           "mmap '" + path + "': " + std::strerror(errno));
    }
    return MappedFile(static_cast<const char*>(base), size);
  }

  MappedFile(MappedFile&& other) noexcept
      : base_(std::exchange(other.base_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      unmap();
      base_ = std::exchange(other.base_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() { unmap(); }

  const char* data() const { return base_; }
  size_t size() const { return size_; }

 private:
  MappedFile(const char* base, size_t size) : base_(base), size_(size) {}
  void unmap() {
    if (base_) ::munmap(const_cast<char*>(base_), size_);
  }

  const char* base_ = nullptr;
  size_t size_ = 0;
};

/// Control-block payload of a loaded snapshot: the Snapshot's views point
/// into `file`, so both live and die together.
struct MappedSnapshot {
  explicit MappedSnapshot(MappedFile f) : file(std::move(f)) {}
  MappedFile file;
  Snapshot snap;
};

// --- validation ------------------------------------------------------------

/// Validate everything about a header that doesn't require payload access:
/// magic, version, CRC, declared length, degraded bits, a delta's base
/// date, and the segment table's exact accounting of a file of `file_size`
/// bytes.
template <typename H>
void validate_header(const H& h, uint64_t file_size) {
  if (std::memcmp(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    fail(SnapshotIoError::kBadMagic, "bad magic");
  }
  if (h.format_version != kFormatVersion<H>) {
    fail(SnapshotIoError::kBadVersion,
         "format version " + std::to_string(h.format_version) +
             " where version " + std::to_string(kFormatVersion<H>) +
             " was expected");
  }
  if (header_crc(h) != h.header_crc32c) {
    fail(SnapshotIoError::kBadHeaderCrc, "header CRC mismatch");
  }
  if (h.file_length > file_size) {
    fail(SnapshotIoError::kTruncated,
         "file is " + std::to_string(file_size) + " bytes, header declares " +
             std::to_string(h.file_length));
  }
  if (h.file_length < file_size) {
    fail(SnapshotIoError::kBadLayout,
         "trailing bytes past the declared file length");
  }
  if (h.degraded & ~kFeedMask) {
    fail(SnapshotIoError::kBadInvariant, "unknown degraded-feed bits");
  }
  if constexpr (kIsDelta<H>) {
    if (h.base_date_days >= h.date_days) {
      // Also rules out self-reference and cycles: every chain hop goes
      // strictly back in time.
      fail(SnapshotIoError::kBadInvariant,
           "delta base is not earlier than its own date");
    }
  }
  // Strict sequential layout: each segment starts exactly where the
  // previous one ended, and the last ends at EOF. A corrupt length cannot
  // smuggle out-of-bounds reads or allocation — there is nothing to
  // allocate and nothing between or beyond the audited segments.
  uint64_t cursor = sizeof(H);
  for (size_t i = 0; i < kSnapshotSegmentCount; ++i) {
    const SegmentDesc& sd = h.segments[i];
    std::string name(to_string(static_cast<SnapshotSegment>(i)));
    if (sd.elem_size != elem_size<H>(i)) {
      fail(SnapshotIoError::kBadLayout, "segment " + name + ": element size " +
                                            std::to_string(sd.elem_size));
    }
    if (sd.offset != cursor) {
      fail(SnapshotIoError::kBadLayout,
           "segment " + name + ": offset " + std::to_string(sd.offset) +
               ", expected " + std::to_string(cursor));
    }
    if (sd.length % sd.elem_size != 0 || sd.length > file_size - cursor) {
      fail(SnapshotIoError::kBadLayout,
           "segment " + name + ": length " + std::to_string(sd.length));
    }
    cursor += sd.length;
  }
  if (cursor != file_size) {
    fail(SnapshotIoError::kBadLayout,
         "segments account for " + std::to_string(cursor) + " of " +
             std::to_string(file_size) + " bytes");
  }
}

/// A mapped file whose header passed validate_header.
template <typename H>
struct ValidatedFile {
  MappedFile map;
  H header;
};

/// mmap `path` and validate its header as kind H — the first stages of all
/// four readers, so the header-only readers and the loaders agree on every
/// check that doesn't touch payload. (Headers are one page anyway.)
template <typename H>
ValidatedFile<H> map_validated(const std::string& path) {
  MappedFile map = MappedFile::open(path);
  if (map.size() < sizeof(H)) {
    fail(SnapshotIoError::kTruncated,
         "'" + path + "' is " + std::to_string(map.size()) +
             " bytes, shorter than the header");
  }
  H h;
  std::memcpy(&h, map.data(), sizeof(h));
  validate_header(h, map.size());
  return {std::move(map), h};
}

/// Check every segment's stored CRC32C against the bytes it describes
/// (layout already validated, so every range is in bounds).
void check_segment_crcs(const char* file, const SegmentDesc* segments) {
  for (size_t i = 0; i < kSnapshotSegmentCount; ++i) {
    const SegmentDesc& sd = segments[i];
    if (util::crc32c(file + sd.offset, sd.length) != sd.crc32c) {
      fail(SnapshotIoError::kBadSegmentCrc,
           "segment " +
               std::string(to_string(static_cast<SnapshotSegment>(i))) +
               ": CRC mismatch");
    }
  }
}

// The shared array-validation path works over raw bytes so the mmap loader
// (viewing the file) and the delta loader (viewing reconstructed buffers)
// reject exactly the same invariant violations.

IntervalSet load_interval_set(const char* data, uint64_t length,
                              SnapshotSegment seg) {
  // 8-byte-aligned trivially-copyable bytes viewed as the real array type —
  // the writer produced these exact bytes from real objects.
  std::span<const Interval> ivs(reinterpret_cast<const Interval*>(data),
                                length / sizeof(Interval));
  if (!IntervalSet::is_canonical(ivs)) {
    fail(SnapshotIoError::kBadInvariant,
         "segment " + std::string(to_string(seg)) +
             ": intervals not sorted/disjoint/bounded");
  }
  return IntervalSet::view(ivs);
}

template <typename T, typename CheckValue>
net::SegmentMap<T> load_segment_map(const char* data, uint64_t length,
                                    SnapshotSegment seg, CheckValue&& check) {
  using Seg = typename net::SegmentMap<T>::Segment;
  std::span<const Seg> segs(reinterpret_cast<const Seg*>(data),
                            length / sizeof(Seg));
  if (!net::SegmentMap<T>::is_canonical(segs)) {
    fail(SnapshotIoError::kBadInvariant,
         "segment " + std::string(to_string(seg)) +
             ": segments not sorted/disjoint/bounded");
  }
  for (const auto& s : segs) {
    if (!check(s.value)) {
      fail(SnapshotIoError::kBadInvariant,
           "segment " + std::string(to_string(seg)) + ": value out of range");
    }
  }
  return net::SegmentMap<T>::view(segs);
}

/// Validate all seven segment byte arrays and assemble a Snapshot of views
/// over them. `bytes_of(i)` returns the i-th segment's (data, byte length);
/// the storage must outlive the snapshot (mapped file or owned buffers).
template <typename Source>
Snapshot build_snapshot_views(uint64_t version, net::Date date,
                              uint8_t degraded, Source&& bytes_of) {
  auto iv = [&](SnapshotSegment seg) {
    auto [data, length] = bytes_of(static_cast<size_t>(seg));
    return load_interval_set(data, length, seg);
  };
  IntervalSet routed = iv(SnapshotSegment::kRouted);
  IntervalSet as0 = iv(SnapshotSegment::kAs0);
  IntervalSet irr = iv(SnapshotSegment::kIrr);
  IntervalSet allocated = iv(SnapshotSegment::kAllocated);
  auto [drop_data, drop_len] =
      bytes_of(static_cast<size_t>(SnapshotSegment::kDrop));
  auto drop = load_segment_map<Snapshot::DropInfo>(
      drop_data, drop_len, SnapshotSegment::kDrop,
      [](const Snapshot::DropInfo& v) {
        return (v.categories & ~kCategoryMask) == 0 && v.incident <= 1;
      });
  auto [rov_data, rov_len] =
      bytes_of(static_cast<size_t>(SnapshotSegment::kRov));
  auto rov = load_segment_map<uint8_t>(
      rov_data, rov_len, SnapshotSegment::kRov, [](uint8_t v) {
        return v <= static_cast<uint8_t>(RovStatus::kUnrouted);
      });
  auto [rir_data, rir_len] =
      bytes_of(static_cast<size_t>(SnapshotSegment::kRir));
  auto rir = load_segment_map<uint8_t>(
      rir_data, rir_len, SnapshotSegment::kRir,
      [](uint8_t v) { return v < rir::kAllRirs.size(); });
  return Snapshot(version, date, degraded, std::move(routed), std::move(as0),
                  std::move(irr), std::move(allocated), std::move(drop),
                  std::move(rov), std::move(rir));
}

}  // namespace

std::string_view to_string(SnapshotIoError code) {
  switch (code) {
    case SnapshotIoError::kIo: return "io-error";
    case SnapshotIoError::kTruncated: return "truncated";
    case SnapshotIoError::kBadMagic: return "bad-magic";
    case SnapshotIoError::kBadVersion: return "bad-version";
    case SnapshotIoError::kBadHeaderCrc: return "bad-header-crc";
    case SnapshotIoError::kBadLayout: return "bad-layout";
    case SnapshotIoError::kBadSegmentCrc: return "bad-segment-crc";
    case SnapshotIoError::kBadInvariant: return "bad-invariant";
  }
  return "unknown";
}

std::string_view to_string(SnapshotSegment s) {
  switch (s) {
    case SnapshotSegment::kRouted: return "routed";
    case SnapshotSegment::kAs0: return "as0";
    case SnapshotSegment::kIrr: return "irr";
    case SnapshotSegment::kAllocated: return "allocated";
    case SnapshotSegment::kDrop: return "drop";
    case SnapshotSegment::kRov: return "rov";
    case SnapshotSegment::kRir: return "rir";
  }
  return "unknown";
}

std::string serialize_snapshot(const Snapshot& snap) {
  obs::Span span("svc.serialize_snapshot");
  return seal_file(SnapshotHeader{}, snap, [&](std::string& out, size_t i) {
    append_segment(out, snap, i);
  });
}

void save_snapshot(const Snapshot& snap, const std::string& path) {
  obs::Span span("svc.save_snapshot");
  obs::counter("droplens_svc_snapshot_saves_total", {},
               "Snapshots saved to .dls files")
      .inc();
  write_file_atomically(serialize_snapshot(snap), path);
}

std::shared_ptr<const Snapshot> load_snapshot(const std::string& path,
                                              uint64_t version) {
  obs::Span span("svc.load_snapshot");
  obs::counter("droplens_svc_snapshot_loads_total", {},
               "Snapshots mmap-loaded from .dls files")
      .inc();
  ValidatedFile<SnapshotHeader> f = map_validated<SnapshotHeader>(path);
  const SnapshotHeader& h = f.header;
  check_segment_crcs(f.map.data(), h.segments);

  // The views below point into the mapping; hand it to the control block
  // so snapshot and mapping share one lifetime. Moving a MappedFile moves
  // ownership, not the base address, so the views stay valid.
  auto holder = std::make_shared<MappedSnapshot>(std::move(f.map));
  holder->snap = build_snapshot_views(
      version, net::Date(h.date_days), h.degraded, [&](size_t i) {
        const SegmentDesc& sd = h.segments[i];
        return std::pair<const char*, uint64_t>(
            holder->file.data() + sd.offset, sd.length);
      });
  return std::shared_ptr<const Snapshot>(holder, &holder->snap);
}

SnapshotHeader read_snapshot_header(const std::string& path) {
  return map_validated<SnapshotHeader>(path).header;
}

// --- delta files -----------------------------------------------------------

namespace {

/// Hard ceiling on one reconstructed segment. Real segments are KBs–MBs;
/// this only exists so a hostile patch cannot declare a huge new_count and
/// turn a small file into a giant allocation.
constexpr uint64_t kMaxDeltaSegmentBytes = uint64_t{1} << 30;

// The host is little-endian (static_assert in the header), so appending raw
// integer bytes is the wire encoding.
template <typename T>
void put_le(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Element-level diff of two canonical segment encodings, as a patch byte
/// stream. Elements are matched on their leading begin:u64 (both Interval
/// and Segment lead with it): equal bytes extend a copy run, a begin only
/// the base has is a deletion (skipped), anything else is a literal.
std::string diff_segment(const std::string& base_enc,
                         const std::string& new_enc, uint32_t esz) {
  const size_t nb = base_enc.size() / esz;
  const size_t nn = new_enc.size() / esz;
  auto key = [esz](const std::string& enc, size_t idx) {
    uint64_t k;
    std::memcpy(&k, enc.data() + idx * esz, sizeof(k));
    return k;
  };

  struct Op {
    bool copy;
    uint64_t start;  // base element index (copy) or new element index (lit)
    uint64_t count;
  };
  std::vector<Op> ops;
  auto emit = [&ops](bool copy, size_t idx) {
    if (!ops.empty() && ops.back().copy == copy &&
        ops.back().start + ops.back().count == idx) {
      ++ops.back().count;
    } else {
      ops.push_back({copy, idx, 1});
    }
  };

  size_t bi = 0, ni = 0;
  while (bi < nb && ni < nn) {
    if (std::memcmp(base_enc.data() + bi * esz, new_enc.data() + ni * esz,
                    esz) == 0) {
      emit(true, bi);
      ++bi;
      ++ni;
    } else if (key(base_enc, bi) < key(new_enc, ni)) {
      ++bi;  // deleted from the base; patches never mention it
    } else {
      emit(false, ni);
      if (key(base_enc, bi) == key(new_enc, ni)) ++bi;  // modified in place
      ++ni;
    }
  }
  for (; ni < nn; ++ni) emit(false, ni);

  std::string out;
  put_le<uint64_t>(out, nn);
  put_le<uint32_t>(out, util::crc32c(new_enc.data(), new_enc.size()));
  put_le<uint32_t>(out, detail::checked_u32(ops.size(), "patch op count"));
  for (const Op& op : ops) {
    if (op.copy) {
      put_le<uint8_t>(out, 0);
      put_le<uint32_t>(out, detail::checked_u32(op.start, "copy op start"));
      put_le<uint32_t>(out, detail::checked_u32(op.count, "copy op count"));
    } else {
      put_le<uint8_t>(out, 1);
      put_le<uint32_t>(out,
                       detail::checked_u32(op.count, "literal op count"));
      out.append(new_enc.data() + op.start * esz, op.count * esz);
    }
  }
  return out;
}

/// Bounds-checked cursor over one patch stream; running out of bytes means
/// the stream lies about its own shape (the file-level truncation case is
/// already excluded by the header's strict layout accounting).
class PatchReader {
 public:
  PatchReader(const char* data, uint64_t size, SnapshotSegment seg)
      : data_(data), size_(size), seg_(seg) {}

  template <typename T>
  T take() {
    T v;
    std::memcpy(&v, bytes(sizeof(T)), sizeof(T));
    return v;
  }
  const char* bytes(uint64_t n) {
    if (size_ - pos_ < n) {
      fail(SnapshotIoError::kBadLayout,
           "segment " + std::string(to_string(seg_)) +
               ": truncated patch stream");
    }
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  bool done() const { return pos_ == size_; }

 private:
  const char* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
  SnapshotSegment seg_;
};

/// Replay one patch stream over the base segment's canonical bytes.
std::string apply_patch(const char* data, uint64_t size,
                        const std::string& base_enc, uint32_t esz,
                        SnapshotSegment seg) {
  const std::string name(to_string(seg));
  PatchReader in(data, size, seg);
  const uint64_t new_count = in.take<uint64_t>();
  const uint32_t new_crc = in.take<uint32_t>();
  const uint32_t op_count = in.take<uint32_t>();
  if (new_count > kMaxDeltaSegmentBytes / esz) {
    fail(SnapshotIoError::kBadInvariant,
         "segment " + name + ": reconstructed size exceeds cap");
  }
  const uint64_t base_count = base_enc.size() / esz;
  std::string out;
  out.reserve(new_count * esz);
  uint64_t produced = 0;
  for (uint32_t i = 0; i < op_count; ++i) {
    const uint8_t kind = in.take<uint8_t>();
    uint64_t count;
    if (kind == 0) {
      const uint64_t start = in.take<uint32_t>();
      count = in.take<uint32_t>();
      if (count == 0 || start + count > base_count) {
        fail(SnapshotIoError::kBadInvariant,
             "segment " + name + ": copy op beyond the base segment");
      }
      if (produced + count > new_count) {
        fail(SnapshotIoError::kBadLayout,
             "segment " + name + ": ops overrun the declared element count");
      }
      out.append(base_enc.data() + start * esz, count * esz);
    } else if (kind == 1) {
      count = in.take<uint32_t>();
      if (count == 0) {
        fail(SnapshotIoError::kBadLayout,
             "segment " + name + ": empty literal op");
      }
      if (produced + count > new_count) {
        fail(SnapshotIoError::kBadLayout,
             "segment " + name + ": ops overrun the declared element count");
      }
      out.append(in.bytes(count * esz), count * esz);
    } else {
      fail(SnapshotIoError::kBadLayout,
           "segment " + name + ": unknown patch op " + std::to_string(kind));
    }
    produced += count;
  }
  if (!in.done()) {
    fail(SnapshotIoError::kBadLayout,
         "segment " + name + ": trailing bytes after the last patch op");
  }
  if (produced != new_count) {
    fail(SnapshotIoError::kBadLayout,
         "segment " + name + ": ops produced " + std::to_string(produced) +
             " of " + std::to_string(new_count) + " elements");
  }
  if (util::crc32c(out.data(), out.size()) != new_crc) {
    // Wrong base content, or literal bytes flipped: either way the
    // reconstruction is not the day the writer serialized.
    fail(SnapshotIoError::kBadSegmentCrc,
         "segment " + name + ": reconstruction CRC mismatch");
  }
  return out;
}

/// Control-block payload of a delta-loaded snapshot: the reconstructed
/// segment bytes in 8-byte-aligned owned storage, viewed by `snap`.
struct PatchedSnapshot {
  std::array<std::vector<uint64_t>, kSnapshotSegmentCount> arrays;
  std::array<uint64_t, kSnapshotSegmentCount> lengths{};
  Snapshot snap;
};

}  // namespace

std::string serialize_snapshot_delta(const Snapshot& snap,
                                     const Snapshot& base) {
  obs::Span span("svc.serialize_snapshot_delta");
  if (!(base.date() < snap.date())) {
    throw InvariantError(
        "snapshot_io: delta base must be strictly earlier than the snapshot");
  }
  SnapshotDeltaHeader h{};
  h.base_date_days = base.date().days();
  return seal_file(h, snap, [&](std::string& out, size_t i) {
    out += diff_segment(encode_segment(base, i), encode_segment(snap, i),
                        kElemSizes[i]);
  });
}

void save_snapshot_delta(const Snapshot& snap, const Snapshot& base,
                         const std::string& path) {
  obs::Span span("svc.save_snapshot_delta");
  obs::counter("droplens_svc_snapshot_saves_total", {},
               "Snapshots saved to .dls files")
      .inc();
  write_file_atomically(serialize_snapshot_delta(snap, base), path);
}

std::shared_ptr<const Snapshot> load_snapshot_delta(const std::string& path,
                                                    const Snapshot& base,
                                                    uint64_t version) {
  obs::Span span("svc.load_snapshot_delta");
  obs::counter("droplens_svc_snapshot_delta_loads_total", {},
               "Snapshots reconstructed from delta .dls files")
      .inc();
  ValidatedFile<SnapshotDeltaHeader> f =
      map_validated<SnapshotDeltaHeader>(path);
  const SnapshotDeltaHeader& h = f.header;
  if (h.base_date_days != base.date().days()) {
    fail(SnapshotIoError::kBadInvariant,
         "delta declares base " + net::Date(h.base_date_days).to_string() +
             ", got " + base.date().to_string());
  }
  check_segment_crcs(f.map.data(), h.segments);

  // Reconstruct every segment into owned aligned storage, then view it like
  // the mmap loader views the file — same canonicality and value checks.
  auto holder = std::make_shared<PatchedSnapshot>();
  for (size_t i = 0; i < kSnapshotSegmentCount; ++i) {
    const SegmentDesc& sd = h.segments[i];
    std::string bytes = apply_patch(f.map.data() + sd.offset, sd.length,
                                    encode_segment(base, i), kElemSizes[i],
                                    static_cast<SnapshotSegment>(i));
    holder->arrays[i].resize((bytes.size() + 7) / 8);
    // An empty segment leaves data() null, which memcpy must not be given.
    if (!bytes.empty()) {
      std::memcpy(holder->arrays[i].data(), bytes.data(), bytes.size());
    }
    holder->lengths[i] = bytes.size();
  }
  holder->snap = build_snapshot_views(
      version, net::Date(h.date_days), h.degraded, [&](size_t i) {
        return std::pair<const char*, uint64_t>(
            reinterpret_cast<const char*>(holder->arrays[i].data()),
            holder->lengths[i]);
      });
  return std::shared_ptr<const Snapshot>(holder, &holder->snap);
}

SnapshotDeltaHeader read_snapshot_delta_header(const std::string& path) {
  return map_validated<SnapshotDeltaHeader>(path).header;
}

SnapshotFileKind snapshot_file_kind(const std::string& path) {
  MappedFile map = MappedFile::open(path);
  if (map.size() < sizeof(kSnapshotMagic) + sizeof(uint32_t)) {
    fail(SnapshotIoError::kTruncated,
         "'" + path + "' is " + std::to_string(map.size()) +
             " bytes, shorter than magic + version");
  }
  if (std::memcmp(map.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    fail(SnapshotIoError::kBadMagic, "bad magic");
  }
  uint32_t version;
  std::memcpy(&version, map.data() + sizeof(kSnapshotMagic), sizeof(version));
  switch (version) {
    case kSnapshotFormatVersion:
      return SnapshotFileKind::kKeyframe;
    case kSnapshotDeltaFormatVersion:
      return SnapshotFileKind::kDelta;
  }
  fail(SnapshotIoError::kBadVersion,
       "format version " + std::to_string(version) +
           " (this build speaks " + std::to_string(kSnapshotFormatVersion) +
           " and " + std::to_string(kSnapshotDeltaFormatVersion) + ")");
}

}  // namespace droplens::svc
