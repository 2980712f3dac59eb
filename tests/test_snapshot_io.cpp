// On-disk snapshot persistence (svc/snapshot_io.hpp, svc/snapshot_store.hpp).
//
// Four contracts, each with its own section below:
//   1. Fidelity — compile → save → mmap-load answers every lookup
//      identically to the in-memory snapshot, across ≥30 dates, degraded
//      days included, and the writer is byte-deterministic (repeat saves
//      and every thread count produce identical bytes).
//   2. Hostility — corrupted files (truncations at every length, every
//      single-bit flip, FaultInjector's archive defects, and targeted
//      header/payload patches) are rejected with a typed
//      SnapshotFormatError; the loader never crashes and never allocates
//      payload for oversized declared counts. Run this binary under both
//      sanitizer presets (see tests/CMakeLists.txt).
//   3. Format pin — checked-in golden keyframe and delta fixtures plus
//      raw-offset assertions freeze format versions 1 and 2; accidental
//      layout drift fails here before it ships.
//   4. Versioning — the SnapshotStore's monotonic counter never stamps two
//      distinct snapshot objects with one version, across compiles, mmap
//      loads, evictions, and rescans.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "net/date.hpp"
#include "net/interval_set.hpp"
#include "net/prefix.hpp"
#include "net/segment_map.hpp"
#include "sim/fault_injector.hpp"
#include "sim/generator.hpp"
#include "sim/rng.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens {
namespace {

namespace fs = std::filesystem;

net::Prefix P(const char* s) { return net::Prefix::parse(s); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/droplens_persist_XXXXXX";
    const char* p = mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    dir_ = p ? p : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

template <typename T>
T read_le(const std::string& bytes, size_t offset) {
  T v{};
  EXPECT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void poke(std::string& bytes, size_t offset, T v) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &v, sizeof(T));
}

// Recompute header_crc32c after a test patched header bytes — the same
// zero-the-field-then-CRC rule the writer uses, so a patched file fails at
// the stage under test instead of at the CRC gate.
void reseal_header(std::string& bytes) {
  svc::SnapshotHeader h{};
  ASSERT_GE(bytes.size(), sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  h.header_crc32c = 0;
  poke<uint32_t>(bytes, offsetof(svc::SnapshotHeader, header_crc32c),
                 util::crc32c(&h, sizeof h));
}

void reseal_segment(std::string& bytes, size_t seg) {
  svc::SnapshotHeader h{};
  ASSERT_GE(bytes.size(), sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  const svc::SegmentDesc& sd = h.segments[seg];
  ASSERT_LE(sd.offset + sd.length, bytes.size());
  poke<uint32_t>(bytes,
                 offsetof(svc::SnapshotHeader, segments) +
                     seg * sizeof(svc::SegmentDesc) +
                     offsetof(svc::SegmentDesc, crc32c),
                 util::crc32c(bytes.data() + sd.offset, sd.length));
  // The segment table lives inside the header, so patching a segment CRC
  // invalidates the header CRC; reseal that too.
  reseal_header(bytes);
}

// Write `bytes` and load them; the load must fail with a typed error.
// Returns the code (nullopt plus a test failure if the load accepted).
std::optional<svc::SnapshotIoError> reject_code(const std::string& path,
                                                const std::string& bytes) {
  write_file(path, bytes);
  try {
    auto snap = svc::load_snapshot(path, 1);
    ADD_FAILURE() << "loader accepted corrupted bytes (" << bytes.size()
                  << " bytes)";
    (void)snap;
    return std::nullopt;
  } catch (const svc::SnapshotFormatError& e) {
    return e.code();
  }
  // Any other exception type escapes and fails the test — that is the
  // point: hostile bytes may only produce SnapshotFormatError.
}

std::vector<net::Prefix> slash8_sweep() {
  std::vector<net::Prefix> probes;
  for (uint32_t octet = 0; octet < 256; ++octet) {
    probes.push_back(net::Prefix(net::Ipv4(octet << 24), 8));
  }
  return probes;
}

std::vector<net::Prefix> fuzz_prefixes(sim::Rng& rng, size_t n) {
  std::vector<net::Prefix> probes;
  probes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t addr = static_cast<uint32_t>(rng.next());
    int len = static_cast<int>(rng.range(0, 32));
    probes.push_back(net::Prefix::containing(net::Ipv4(addr), len));
  }
  return probes;
}

void expect_identical_answers(const svc::Snapshot& a, const svc::Snapshot& b,
                              const std::vector<net::Prefix>& probes) {
  for (const net::Prefix& p : probes) {
    svc::Answer wa = a.lookup(p, svc::kAllFields);
    svc::Answer wb = b.lookup(p, svc::kAllFields);
    ASSERT_EQ(wa, wb) << p.to_string();
    // Partial masks go through the same field gates; spot-check one.
    uint8_t mask = svc::field_bit(svc::Field::kDrop) |
                   svc::field_bit(svc::Field::kRov);
    ASSERT_EQ(a.lookup(p, mask), b.lookup(p, mask)) << p.to_string();
  }
}

// ---------------------------------------------------------------------------
// crc32c — the checksum everything above rests on.

TEST(Crc32c, KnownAnswers) {
  // RFC 3720 B.4 check value.
  EXPECT_EQ(util::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c("", 0), 0u);
  const char iscsi_zeros[32] = {};
  EXPECT_EQ(util::crc32c(iscsi_zeros, 32), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string whole = "stop, drop, and roa";
  for (size_t split = 0; split <= whole.size(); ++split) {
    uint32_t part = util::crc32c(whole.data(), split);
    uint32_t chained =
        util::crc32c(whole.data() + split, whole.size() - split, part);
    EXPECT_EQ(chained, util::crc32c(whole.data(), whole.size())) << split;
  }
}

// crc32c() takes the SSE4.2 path on CPUs that have it; the table loop is
// its oracle. Lengths and offsets cover every head/tail split of the
// 8-byte word loop and every load alignment.
std::vector<unsigned char> random_bytes(size_t n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.next());
  return out;
}

TEST(Crc32c, MatchesReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(1100 + 16, 0xC3C3);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(util::crc32c(p, len), util::crc32c_reference(p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32c, MatchesReferenceOnAMebibyte) {
  const std::vector<unsigned char> buf = random_bytes(size_t{1} << 20, 7);
  EXPECT_EQ(util::crc32c(buf.data(), buf.size()),
            util::crc32c_reference(buf.data(), buf.size()));
  EXPECT_EQ(util::crc32c(buf.data(), buf.size(), 0xDEADBEEFu),
            util::crc32c_reference(buf.data(), buf.size(), 0xDEADBEEFu));
}

TEST(Crc32c, ChainsAcrossImplementations) {
  const std::vector<unsigned char> buf = random_bytes(301, 11);
  const uint32_t whole = util::crc32c_reference(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    const unsigned char* rest = buf.data() + split;
    const size_t rest_len = buf.size() - split;
    uint32_t hw_first = util::crc32c(buf.data(), split);
    EXPECT_EQ(util::crc32c_reference(rest, rest_len, hw_first), whole)
        << split;
    uint32_t table_first = util::crc32c_reference(buf.data(), split);
    EXPECT_EQ(util::crc32c(rest, rest_len, table_first), whole) << split;
  }
}

// ---------------------------------------------------------------------------
// Zero-copy views: the net-layer primitives the mmap loader builds on.

TEST(IntervalSetView, AnswersIdenticallyAndDetachesOnMutation) {
  net::IntervalSet owned;
  owned.insert(P("10.0.0.0/8"));
  owned.insert(P("192.168.0.0/16"));
  owned.insert(P("203.0.113.0/24"));

  net::IntervalSet view = net::IntervalSet::view(owned.intervals());
  EXPECT_TRUE(view.is_view());
  EXPECT_FALSE(owned.is_view());
  EXPECT_EQ(view, owned);
  EXPECT_EQ(view.size(), owned.size());
  for (const char* s : {"10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8",
                        "192.168.5.0/24", "203.0.113.0/24", "0.0.0.0/0"}) {
    EXPECT_EQ(view.covers(P(s)), owned.covers(P(s))) << s;
    EXPECT_EQ(view.intersects(P(s)), owned.intersects(P(s))) << s;
  }
  EXPECT_EQ(view.contains(net::Ipv4(10u << 24)), true);
  EXPECT_EQ(view.contains(net::Ipv4(11u << 24)), false);

  // A copy of a view is still a view over the same storage.
  net::IntervalSet copy = view;
  EXPECT_TRUE(copy.is_view());

  // Mutation detaches: the view becomes owned, external storage untouched.
  copy.insert(P("11.0.0.0/8"));
  EXPECT_FALSE(copy.is_view());
  EXPECT_TRUE(copy.covers(P("11.0.0.0/8")));
  EXPECT_FALSE(view.covers(P("11.0.0.0/8")));
  EXPECT_EQ(owned.interval_count(), 3u);
}

TEST(IntervalSetView, IsCanonicalRejectsEveryInvariantViolation) {
  using IV = net::IntervalSet::Interval;
  auto ok = [](std::vector<IV> v) {
    return net::IntervalSet::is_canonical(v);
  };
  EXPECT_TRUE(ok({}));
  EXPECT_TRUE(ok({{0, 1}}));
  EXPECT_TRUE(ok({{0, 10}, {20, 1ull << 32}}));
  EXPECT_FALSE(ok({{20, 30}, {0, 10}}));       // unsorted
  EXPECT_FALSE(ok({{0, 10}, {5, 20}}));        // overlapping
  EXPECT_FALSE(ok({{0, 10}, {10, 20}}));       // adjacent (must coalesce)
  EXPECT_FALSE(ok({{10, 10}}));                // empty interval
  EXPECT_FALSE(ok({{10, 5}}));                 // inverted
  EXPECT_FALSE(ok({{0, (1ull << 32) + 1}}));   // beyond the IPv4 space
}

TEST(SegmentMapView, AnswersIdenticallyAndRejectsNonCanonical) {
  net::SegmentMap<uint8_t> owned;
  owned.assign(P("10.0.0.0/8"), 1);
  owned.assign(P("10.1.0.0/16"), 2);
  owned.assign(P("172.16.0.0/12"), 3);
  owned.finalize();

  net::SegmentMap<uint8_t> view = net::SegmentMap<uint8_t>::view(
      owned.segments());
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.segment_count(), owned.segment_count());
  for (const char* s : {"10.0.0.0/8", "10.1.2.0/24", "10.200.0.0/16",
                        "172.16.0.0/12", "8.0.0.0/8"}) {
    const uint8_t* a = owned.lookup(P(s));
    const uint8_t* b = view.lookup(P(s));
    ASSERT_EQ(a == nullptr, b == nullptr) << s;
    if (a) {
      EXPECT_EQ(*a, *b) << s;
    }
  }

  using Seg = net::SegmentMap<uint8_t>::Segment;
  auto ok = [](std::vector<Seg> v) {
    return net::SegmentMap<uint8_t>::is_canonical(v);
  };
  EXPECT_TRUE(ok({}));
  EXPECT_TRUE(ok({{0, 10, 1}, {10, 20, 2}}));  // adjacent distinct values ok
  EXPECT_TRUE(ok({{0, 10, 1}, {10, 20, 1}}));  // maximal coalescing optional
  EXPECT_FALSE(ok({{10, 20, 1}, {0, 5, 2}}));  // unsorted
  EXPECT_FALSE(ok({{0, 10, 1}, {5, 20, 2}}));  // overlapping
  EXPECT_FALSE(ok({{5, 5, 1}}));               // empty
  EXPECT_FALSE(ok({{0, (1ull << 32) + 1, 1}}));
}

// ---------------------------------------------------------------------------
// The golden snapshot: hand-assembled parts, no generator involved, so its
// serialized bytes depend on nothing but the format itself.

svc::Snapshot make_golden_snapshot() {
  net::IntervalSet routed;
  routed.insert(P("1.0.0.0/8"));
  routed.insert(P("9.9.0.0/16"));
  routed.insert(P("203.0.113.0/24"));
  net::IntervalSet as0;  // deliberately empty: zero-length segments happen
  net::IntervalSet irr;
  irr.insert(P("9.9.8.0/22"));
  net::IntervalSet allocated;
  allocated.insert(P("1.0.0.0/8"));
  allocated.insert(P("9.0.0.0/8"));
  allocated.insert(P("203.0.0.0/8"));

  net::SegmentMap<svc::Snapshot::DropInfo> drop;
  drop.assign(P("1.2.3.0/24"), svc::Snapshot::DropInfo{0x21, 1});
  drop.assign(P("9.9.9.0/24"), svc::Snapshot::DropInfo{0x03, 0});
  drop.finalize();
  net::SegmentMap<uint8_t> rov;
  rov.assign(P("1.0.0.0/8"), 2);        // RovStatus::kNotFound
  rov.assign(P("1.2.0.0/16"), 1);       // RovStatus::kInvalid
  rov.assign(P("203.0.113.0/24"), 0);   // RovStatus::kValid
  rov.finalize();
  net::SegmentMap<uint8_t> rir;
  rir.assign(P("1.0.0.0/8"), 0);
  rir.assign(P("9.0.0.0/8"), 3);
  rir.assign(P("203.0.0.0/8"), 4);
  rir.finalize();

  return svc::Snapshot(7, net::Date::parse("2019-08-04"), 0x05,
                       std::move(routed), std::move(as0), std::move(irr),
                       std::move(allocated), std::move(drop), std::move(rov),
                       std::move(rir));
}

std::vector<net::Prefix> golden_probes() {
  std::vector<net::Prefix> probes = {
      P("1.0.0.0/8"),     P("1.2.3.0/24"),   P("1.2.3.4/32"),
      P("1.2.0.0/16"),    P("9.9.9.0/24"),   P("9.9.8.0/22"),
      P("9.0.0.0/8"),     P("203.0.113.0/24"), P("203.0.113.9/32"),
      P("203.0.0.0/8"),   P("8.8.8.0/24"),   P("0.0.0.0/0"),
      P("255.255.255.255/32"),
  };
  return probes;
}

TEST(SnapshotGolden, SerializedBytesMatchCheckedInFixture) {
  const svc::Snapshot golden = make_golden_snapshot();
  const std::string bytes = svc::serialize_snapshot(golden);
  const std::string fixture_path = DROPLENS_GOLDEN_SNAPSHOT;

  if (std::getenv("DROPLENS_UPDATE_GOLDEN") != nullptr) {
    write_file(fixture_path, bytes);
    GTEST_SKIP() << "regenerated " << fixture_path << " (" << bytes.size()
                 << " bytes)";
  }

  const std::string fixture = read_file(fixture_path);
  ASSERT_EQ(bytes.size(), fixture.size())
      << "serialized size drifted from the checked-in fixture; if the "
         "format changed on purpose, bump kSnapshotFormatVersion and rerun "
         "with DROPLENS_UPDATE_GOLDEN=1";
  ASSERT_TRUE(bytes == fixture)
      << "serialized bytes drifted from the checked-in fixture at offset "
      << std::distance(
             fixture.begin(),
             std::mismatch(fixture.begin(), fixture.end(), bytes.begin())
                 .first);
}

TEST(SnapshotGolden, RawOffsetsPinTheFormat) {
  const svc::Snapshot golden = make_golden_snapshot();
  const std::string bytes = svc::serialize_snapshot(golden);

  ASSERT_GE(bytes.size(), sizeof(svc::SnapshotHeader));
  EXPECT_EQ(std::memcmp(bytes.data(), svc::kSnapshotMagic, 8), 0);
  EXPECT_EQ(read_le<uint32_t>(bytes, 8), svc::kSnapshotFormatVersion);
  EXPECT_EQ(read_le<int32_t>(bytes, 16),
            net::Date::parse("2019-08-04").days());
  EXPECT_EQ(read_le<uint8_t>(bytes, 20), 0x05);  // degraded bits
  EXPECT_EQ(read_le<uint8_t>(bytes, 21), 0);     // reserved, always zero
  EXPECT_EQ(read_le<uint8_t>(bytes, 22), 0);
  EXPECT_EQ(read_le<uint8_t>(bytes, 23), 0);
  EXPECT_EQ(read_le<uint64_t>(bytes, 24), 7u);   // writer_version
  EXPECT_EQ(read_le<uint64_t>(bytes, 32), bytes.size());

  // Segment table: routed starts right after the header; strict sequential
  // layout; Interval segments are 16-byte elements, valued maps 24.
  uint64_t cursor = sizeof(svc::SnapshotHeader);
  for (size_t s = 0; s < svc::kSnapshotSegmentCount; ++s) {
    size_t at = 40 + s * sizeof(svc::SegmentDesc);
    uint64_t offset = read_le<uint64_t>(bytes, at);
    uint64_t length = read_le<uint64_t>(bytes, at + 8);
    uint32_t elem = read_le<uint32_t>(bytes, at + 20);
    EXPECT_EQ(offset, cursor) << "segment " << s;
    EXPECT_EQ(elem, s < 4 ? 16u : 24u) << "segment " << s;
    EXPECT_EQ(length % elem, 0u) << "segment " << s;
    cursor += length;
  }
  EXPECT_EQ(cursor, bytes.size());

  // First routed interval: 1.0.0.0/8 as little-endian u64 begin/end.
  EXPECT_EQ(read_le<uint64_t>(bytes, 208), uint64_t{1} << 24);
  EXPECT_EQ(read_le<uint64_t>(bytes, 216), uint64_t{2} << 24);

  // The header CRC actually covers the header: recomputing it over the
  // zeroed-field bytes must reproduce the stored value.
  std::string resealed = bytes;
  reseal_header(resealed);
  EXPECT_EQ(read_le<uint32_t>(resealed, 12), read_le<uint32_t>(bytes, 12));
}

TEST(SnapshotGolden, FixtureLoadsAndAnswersMatchHandBuilt) {
  const std::string fixture_path = DROPLENS_GOLDEN_SNAPSHOT;
  if (std::getenv("DROPLENS_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "fixture being regenerated by the byte test";
  }
  const svc::Snapshot golden = make_golden_snapshot();
  std::shared_ptr<const svc::Snapshot> loaded =
      svc::load_snapshot(fixture_path, 42);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->version(), 42u)  // caller-assigned, not the file's 7
      << "loader must report the caller's version, not writer_version";
  EXPECT_EQ(loaded->date(), golden.date());
  EXPECT_EQ(loaded->degraded(), golden.degraded());
  EXPECT_TRUE(loaded->routed().is_view());
  EXPECT_TRUE(loaded->drop().is_view());
  expect_identical_answers(golden, *loaded, golden_probes());

  svc::SnapshotHeader h = svc::read_snapshot_header(fixture_path);
  EXPECT_EQ(h.writer_version, 7u);
  EXPECT_EQ(h.degraded, 0x05);
  EXPECT_EQ(net::Date(h.date_days), golden.date());
}

TEST(SnapshotGolden, FixtureRebuildsFastIndexAndBatchMatchesReference) {
  // The fixture predates the Eytzinger index, which proves the invariant
  // that matters: the index is a load-time permutation overlay rebuilt from
  // the canonical arrays, never part of the format. A pre-index `.dls` must
  // load with every fast index live, answer batched queries byte-identically
  // to the plain upper_bound reference path, and reserialize to the exact
  // fixture bytes.
  const std::string fixture_path = DROPLENS_GOLDEN_SNAPSHOT;
  if (std::getenv("DROPLENS_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "fixture being regenerated by the byte test";
  }
  // Version 7 matches the fixture's writer_version so the reserialize check
  // below can demand exact bytes (the header embeds the writer's version).
  std::shared_ptr<const svc::Snapshot> loaded =
      svc::load_snapshot(fixture_path, 7);
  EXPECT_TRUE(loaded->routed().has_fast_index());
  EXPECT_TRUE(loaded->irr().has_fast_index());
  EXPECT_TRUE(loaded->allocated().has_fast_index());
  EXPECT_TRUE(loaded->drop().has_fast_index());
  EXPECT_TRUE(loaded->rov().has_fast_index());
  EXPECT_TRUE(loaded->rir().has_fast_index());
  // as0 is deliberately empty in the golden world; an empty index still
  // counts as built and answers through the same descent.
  EXPECT_TRUE(loaded->as0().has_fast_index());

  const std::vector<net::Prefix> probes = golden_probes();
  const std::vector<uint8_t> fields(probes.size(), svc::kAllFields);
  std::vector<svc::Answer> batched(probes.size());
  loaded->lookup_batch(probes, fields, batched);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(batched[i], loaded->lookup_reference(probes[i], svc::kAllFields))
        << probes[i].to_string();
    EXPECT_EQ(batched[i], loaded->lookup(probes[i], svc::kAllFields))
        << probes[i].to_string();
  }

  EXPECT_EQ(svc::serialize_snapshot(*loaded), read_file(fixture_path))
      << "the acceleration index must never leak into the on-disk bytes";
}

// ---------------------------------------------------------------------------
// Corruption fuzzing. All of it runs against the small hand-built snapshot,
// so exhaustive per-byte sweeps stay cheap; the world-scale files go through
// the same loader in the round-trip section.

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = svc::serialize_snapshot(make_golden_snapshot());
    path_ = tmp_.path("corrupt.dls");
    header_ = svc::SnapshotHeader{};
    std::memcpy(&header_, bytes_.data(), sizeof header_);
  }

  size_t seg_desc_at(size_t seg, size_t field_offset) const {
    return offsetof(svc::SnapshotHeader, segments) +
           seg * sizeof(svc::SegmentDesc) + field_offset;
  }

  TempDir tmp_;
  std::string bytes_;
  std::string path_;
  svc::SnapshotHeader header_;
};

TEST_F(SnapshotCorruptionTest, EveryTruncationLengthRejectsTyped) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    std::optional<svc::SnapshotIoError> code =
        reject_code(path_, bytes_.substr(0, len));
    ASSERT_TRUE(code.has_value()) << "accepted truncation to " << len;
    if (len < sizeof(svc::SnapshotHeader)) {
      EXPECT_EQ(*code, svc::SnapshotIoError::kTruncated) << len;
    } else {
      // Payload truncations surface as a declared-vs-actual length mismatch.
      EXPECT_EQ(*code, svc::SnapshotIoError::kTruncated) << len;
    }
  }
}

TEST_F(SnapshotCorruptionTest, EverySingleBitFlipRejectsTyped) {
  // Every byte of the file is covered by the header CRC or a segment CRC,
  // so no single-bit flip may survive. (Flips that also break an earlier
  // gate — magic, version, layout — are caught there; all are typed.)
  for (size_t byte = 0; byte < bytes_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes_;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::optional<svc::SnapshotIoError> code = reject_code(path_, mutated);
      ASSERT_TRUE(code.has_value())
          << "accepted bit flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(SnapshotCorruptionTest, FaultInjectorArchiveDefectsRejectTyped) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    sim::FaultInjector inj(seed);
    for (sim::FaultKind kind : sim::kAllFaultKinds) {
      std::string mutated = inj.apply(kind, bytes_);
      if (mutated == bytes_) continue;  // injector no-op on this input
      std::optional<svc::SnapshotIoError> code = reject_code(path_, mutated);
      ASSERT_TRUE(code.has_value())
          << to_string(kind) << " seed " << seed << " was accepted";
    }
  }
}

TEST_F(SnapshotCorruptionTest, EmptyFileIsTruncated) {
  EXPECT_EQ(reject_code(path_, ""), svc::SnapshotIoError::kTruncated);
}

TEST_F(SnapshotCorruptionTest, WrongMagicIsBadMagic) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadMagic);
  // ASCII-mode mangling: the \r\n tail is part of the magic.
  std::string crlf = bytes_;
  crlf.erase(6, 1);  // \r stripped, everything shifts
  EXPECT_TRUE(reject_code(path_, crlf).has_value());
}

TEST_F(SnapshotCorruptionTest, UnknownFormatVersionIsBadVersion) {
  std::string mutated = bytes_;
  poke<uint32_t>(mutated, offsetof(svc::SnapshotHeader, format_version),
                 svc::kSnapshotFormatVersion + 1);
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadVersion);
}

TEST_F(SnapshotCorruptionTest, FlippedReservedByteIsBadHeaderCrc) {
  std::string mutated = bytes_;
  mutated[21] = 0x7f;  // reserved byte: covered by the CRC, no other gate
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadHeaderCrc);
}

TEST_F(SnapshotCorruptionTest, UnknownDegradedBitsAreBadInvariant) {
  std::string mutated = bytes_;
  poke<uint8_t>(mutated, offsetof(svc::SnapshotHeader, degraded), 0xff);
  reseal_header(mutated);
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadInvariant);
}

TEST_F(SnapshotCorruptionTest, OversizedDeclaredLengthsNeverOverAllocate) {
  // The attack the strict layout accounting exists for: a header declaring
  // terabytes of elements. The loader walks offsets against the real file
  // size before building anything, so the huge count is rejected at the
  // layout stage without any allocation proportional to it (zero payload
  // allocation happens at all — the arrays stay views).
  for (uint64_t huge : {uint64_t{1} << 40, uint64_t{1} << 60}) {
    std::string mutated = bytes_;
    poke<uint64_t>(mutated, seg_desc_at(0, offsetof(svc::SegmentDesc, length)),
                   huge);
    reseal_header(mutated);
    EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadLayout);
  }
  // Declaring a huge total file length instead trips the size audit.
  std::string mutated = bytes_;
  poke<uint64_t>(mutated, offsetof(svc::SnapshotHeader, file_length),
                 uint64_t{1} << 50);
  reseal_header(mutated);
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kTruncated);
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageIsBadLayout) {
  EXPECT_EQ(reject_code(path_, bytes_ + std::string(64, '\xab')),
            svc::SnapshotIoError::kBadLayout);
}

TEST_F(SnapshotCorruptionTest, SegmentGapAndElemSizeMismatchAreBadLayout) {
  std::string shifted = bytes_;
  poke<uint64_t>(shifted, seg_desc_at(2, offsetof(svc::SegmentDesc, offset)),
                 header_.segments[2].offset + 8);
  reseal_header(shifted);
  EXPECT_EQ(reject_code(path_, shifted), svc::SnapshotIoError::kBadLayout);

  std::string resized = bytes_;
  poke<uint32_t>(resized, seg_desc_at(0, offsetof(svc::SegmentDesc, elem_size)),
                 24);
  reseal_header(resized);
  EXPECT_EQ(reject_code(path_, resized), svc::SnapshotIoError::kBadLayout);
}

TEST_F(SnapshotCorruptionTest, CorruptedSegmentCrcFieldIsBadSegmentCrc) {
  std::string mutated = bytes_;
  poke<uint32_t>(mutated, seg_desc_at(0, offsetof(svc::SegmentDesc, crc32c)),
                 header_.segments[0].crc32c ^ 0xdeadbeef);
  reseal_header(mutated);  // header itself is consistent; the segment isn't
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadSegmentCrc);
}

TEST_F(SnapshotCorruptionTest, UnsortedIntervalsAreBadInvariant) {
  // Swap the first two routed intervals; reseal the segment CRC so the
  // structural check is what fires.
  ASSERT_GE(header_.segments[0].count(), 2u);
  std::string mutated = bytes_;
  size_t base = header_.segments[0].offset;
  char tmp[16];
  std::memcpy(tmp, mutated.data() + base, 16);
  std::memmove(mutated.data() + base, mutated.data() + base + 16, 16);
  std::memcpy(mutated.data() + base + 16, tmp, 16);
  reseal_segment(mutated, 0);
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadInvariant);
}

TEST_F(SnapshotCorruptionTest, OverlappingIntervalsAreBadInvariant) {
  std::string mutated = bytes_;
  size_t base = header_.segments[0].offset;
  // Stretch the first interval's end over the second interval's begin.
  uint64_t second_begin = read_le<uint64_t>(mutated, base + 16);
  poke<uint64_t>(mutated, base + 8, second_begin + 1);
  reseal_segment(mutated, 0);
  EXPECT_EQ(reject_code(path_, mutated), svc::SnapshotIoError::kBadInvariant);
}

TEST_F(SnapshotCorruptionTest, OutOfRangeValuesAreBadInvariant) {
  const size_t drop_seg = 4, rov_seg = 5, rir_seg = 6;
  {
    std::string mutated = bytes_;  // incident byte may only be 0/1
    poke<uint8_t>(mutated, header_.segments[drop_seg].offset + 17, 2);
    reseal_segment(mutated, drop_seg);
    EXPECT_EQ(reject_code(path_, mutated),
              svc::SnapshotIoError::kBadInvariant);
  }
  {
    std::string mutated = bytes_;  // category bits beyond the known six
    poke<uint8_t>(mutated, header_.segments[drop_seg].offset + 16, 0xc0);
    reseal_segment(mutated, drop_seg);
    EXPECT_EQ(reject_code(path_, mutated),
              svc::SnapshotIoError::kBadInvariant);
  }
  {
    std::string mutated = bytes_;  // RovStatus beyond kUnrouted
    poke<uint8_t>(mutated, header_.segments[rov_seg].offset + 16, 4);
    reseal_segment(mutated, rov_seg);
    EXPECT_EQ(reject_code(path_, mutated),
              svc::SnapshotIoError::kBadInvariant);
  }
  {
    std::string mutated = bytes_;  // RIR index beyond the five registries
    poke<uint8_t>(mutated, header_.segments[rir_seg].offset + 16, 5);
    reseal_segment(mutated, rir_seg);
    EXPECT_EQ(reject_code(path_, mutated),
              svc::SnapshotIoError::kBadInvariant);
  }
}

TEST_F(SnapshotCorruptionTest, GarbageSegmentBytesAreRejected) {
  std::string mutated = bytes_;
  size_t base = header_.segments[5].offset;  // rov
  std::memset(mutated.data() + base, 0xab, header_.segments[5].length);
  reseal_segment(mutated, 5);
  std::optional<svc::SnapshotIoError> code = reject_code(path_, mutated);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, svc::SnapshotIoError::kBadInvariant);
}

TEST_F(SnapshotCorruptionTest, MissingFileIsIo) {
  try {
    svc::load_snapshot(tmp_.path("does_not_exist.dls"), 1);
    FAIL() << "loaded a path that does not exist";
  } catch (const svc::SnapshotFormatError& e) {
    EXPECT_EQ(e.code(), svc::SnapshotIoError::kIo);
  }
}

// ---------------------------------------------------------------------------
// World-scale round trip: the generated study, ≥30 dates, degraded days,
// every thread count.

class PersistWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig(sim::ScenarioConfig::small());
    world_ = sim::generate(*config_).release();
    cache_ = new core::SnapshotCache(world_->registry, world_->fleet,
                                     world_->roas, world_->drop, &world_->irr);
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete world_;
    delete config_;
  }
  core::Study study() const {
    core::Study s{world_->registry,      world_->fleet, world_->irr,
                  world_->roas,          world_->drop,  world_->sbl,
                  config_->window_begin, config_->window_end};
    s.snapshots = cache_;
    return s;
  }
  static sim::ScenarioConfig* config_;
  static sim::World* world_;
  static core::SnapshotCache* cache_;
};

sim::ScenarioConfig* PersistWorldTest::config_ = nullptr;
sim::World* PersistWorldTest::world_ = nullptr;
core::SnapshotCache* PersistWorldTest::cache_ = nullptr;

TEST_F(PersistWorldTest, RoundTripIsAnswerIdenticalAcross30Dates) {
  TempDir tmp;
  core::Study s = study();
  util::ThreadPool pool(util::ThreadPool::default_thread_count());
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  s.pool = &pool;
  s.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(s);

  const std::vector<net::Prefix> sweep = slash8_sweep();
  sim::Rng rng(20190804);
  for (int i = 0; i < 30; ++i) {
    net::Date d = config_->window_begin + 10 + i * 4;
    auto snap = svc::compile_snapshot(s, index, d, uint64_t(i) + 1);

    // Writer determinism: repeat serializations are byte-identical, and a
    // saved file holds exactly those bytes.
    const std::string bytes = svc::serialize_snapshot(*snap);
    ASSERT_EQ(bytes, svc::serialize_snapshot(*snap)) << d.to_string();
    const std::string path = tmp.path(svc::SnapshotStore::file_name(d));
    svc::save_snapshot(*snap, path);
    ASSERT_EQ(read_file(path), bytes) << d.to_string();
    svc::save_snapshot(*snap, path);  // repeat saves byte-stable too
    ASSERT_EQ(read_file(path), bytes) << d.to_string();

    auto loaded = svc::load_snapshot(path, uint64_t(i) + 1);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->date(), d);
    EXPECT_EQ(loaded->degraded(), snap->degraded());
    EXPECT_TRUE(loaded->routed().is_view());

    expect_identical_answers(*snap, *loaded, sweep);
    expect_identical_answers(*snap, *loaded, fuzz_prefixes(rng, 10000));
  }
}

TEST_F(PersistWorldTest, SavedBytesAreIdenticalForEveryThreadCount) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  std::vector<std::string> reference;
  for (unsigned threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                              world_->drop, &world_->irr);
    core::Study st = s;
    st.pool = &pool;
    st.snapshots = &cache;
    std::vector<std::string> serialized;
    for (int i = 0; i < 6; ++i) {
      net::Date d = config_->window_begin + 10 + i * 20;
      auto snap = svc::compile_snapshot(st, index, d, 1);
      serialized.push_back(svc::serialize_snapshot(*snap));
    }
    if (reference.empty()) {
      reference = std::move(serialized);
    } else {
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(serialized[i], reference[i])
            << "threads=" << threads << " date index " << i;
      }
    }
  }
}

TEST_F(PersistWorldTest, DegradedDaysRoundTripWithTheirBits) {
  TempDir tmp;
  core::Study s = study();
  core::DataQuality quality;
  s.quality = &quality;
  core::DropIndex index = core::DropIndex::build(s);

  net::Date drop_day = config_->window_begin + 40;
  net::Date multi_day = config_->window_begin + 44;
  quality.mark_day_unavailable(core::Feed::kDropFeed, drop_day);
  quality.mark_day_unavailable(core::Feed::kRoas, multi_day);
  quality.mark_day_unavailable(core::Feed::kIrr, multi_day);

  sim::Rng rng(0xD0D0);
  for (net::Date d : {drop_day, multi_day}) {
    auto snap = svc::compile_snapshot(s, index, d, 1);
    ASSERT_NE(snap->degraded(), 0) << d.to_string();
    const std::string path = tmp.path(svc::SnapshotStore::file_name(d));
    svc::save_snapshot(*snap, path);
    auto loaded = svc::load_snapshot(path, 1);
    EXPECT_EQ(loaded->degraded(), snap->degraded()) << d.to_string();
    expect_identical_answers(*snap, *loaded, slash8_sweep());
    expect_identical_answers(*snap, *loaded, fuzz_prefixes(rng, 2000));
  }
  uint8_t drop_bit =
      uint8_t{1} << static_cast<uint8_t>(core::Feed::kDropFeed);
  auto snap = svc::compile_snapshot(s, index, drop_day, 1);
  EXPECT_EQ(snap->degraded() & drop_bit, drop_bit);
}

// ---------------------------------------------------------------------------
// SnapshotStore: the version-uniqueness contract, LRU eviction, rescan, and
// disk-only / corrupt-file behavior.

class SnapshotStoreTest : public PersistWorldTest {
 protected:
  std::optional<core::Study> store_study_;
  std::unique_ptr<core::DropIndex> index_;

  void SetUp() override {
    store_study_.emplace(study());
    index_ = std::make_unique<core::DropIndex>(
        core::DropIndex::build(*store_study_));
  }

  net::Date date(int offset) const { return config_->window_begin + offset; }
};

TEST_F(SnapshotStoreTest, VersionsAreUniqueAcrossEvictionAndRescan) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  cfg.max_resident = 2;
  svc::SnapshotStore store(cfg, &*store_study_, index_.get());

  // Keep every snapshot alive so distinct objects stay distinguishable.
  std::vector<std::shared_ptr<const svc::Snapshot>> held;
  for (int i = 0; i < 5; ++i) held.push_back(store.get(date(20 + i)));
  // All five evicted-or-resident snapshots came from compiles and were
  // written through.
  svc::SnapshotStore::Stats stats = store.stats();
  EXPECT_EQ(stats.compiles, 5u);
  EXPECT_EQ(stats.saves, 5u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(store.resident_count(), 2u);

  // Re-request an evicted day: this mmap-loads the write-through file and
  // MUST mint a fresh version — the held snapshot for the same date is a
  // different object and may still be serving queries.
  held.push_back(store.get(date(20)));
  EXPECT_EQ(store.stats().loads, 1u);
  // Mid-run reload: drop residency, re-request more days.
  store.rescan();
  held.push_back(store.get(date(21)));
  held.push_back(store.get(date(22)));

  std::set<const svc::Snapshot*> objects;
  std::set<uint64_t> versions;
  for (const auto& snap : held) {
    ASSERT_NE(snap, nullptr);
    objects.insert(snap.get());
    versions.insert(snap->version());
  }
  EXPECT_EQ(objects.size(), held.size()) << "each get() minted a new object";
  EXPECT_EQ(versions.size(), held.size())
      << "two distinct snapshots were served under one version";

  // Evicted-but-held snapshots must stay fully usable: their mmap lifetime
  // rides the shared_ptr, not the store's residency.
  expect_identical_answers(*held[0], *held[5], slash8_sweep());
}

TEST_F(SnapshotStoreTest, ResidentHitReturnsTheSameObjectAndVersion) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  svc::SnapshotStore store(cfg, &*store_study_, index_.get());
  auto a = store.get(date(30));
  auto b = store.get(date(30));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->version(), b->version());
  EXPECT_EQ(store.stats().resident_hits, 1u);
  EXPECT_EQ(store.stats().compiles, 1u);
}

TEST_F(SnapshotStoreTest, MemoryOnlyStoreCompilesWithoutTouchingDisk) {
  svc::SnapshotStore store({}, &*store_study_, index_.get());
  auto snap = store.get(date(30));
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(store.stats().saves, 0u);
  EXPECT_TRUE(store.on_disk().empty());
}

// A write-through save that cannot land (a full disk, a read-only or bogus
// directory) must not throw the compile away: the day serves from memory.
TEST_F(SnapshotStoreTest, FailedWriteThroughStillServesTheCompile) {
  svc::SnapshotStore::Config cfg;
  cfg.dir = "/dev/null/dls";  // never a creatable directory
  svc::SnapshotStore store(cfg, &*store_study_, index_.get());
  auto snap = store.get(date(30));
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(store.get(date(30)).get(), snap.get());
  EXPECT_EQ(store.stats().compiles, 1u);
  EXPECT_EQ(store.stats().saves, 0u);
}

TEST_F(SnapshotStoreTest, CorruptFileFallsBackToCompileAndHealsTheFile) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  svc::SnapshotStore writer_store(cfg, &*store_study_, index_.get());
  net::Date d = date(33);
  write_file(writer_store.path_for(d), "these are not snapshot bytes");

  auto snap = writer_store.get(d);
  ASSERT_NE(snap, nullptr);
  svc::SnapshotStore::Stats stats = writer_store.stats();
  EXPECT_EQ(stats.load_failures, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.saves, 1u);  // the bad file was overwritten

  // The healed file now loads cleanly in a disk-only store.
  svc::SnapshotStore disk_only(cfg);
  auto reloaded = disk_only.get(d);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(disk_only.stats().loads, 1u);
  expect_identical_answers(*snap, *reloaded, slash8_sweep());
}

TEST_F(SnapshotStoreTest, DiskOnlyStoreServesFilesAndRefusesTheRest) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  {
    svc::SnapshotStore writer_store(cfg, &*store_study_, index_.get());
    writer_store.get(date(35));
  }
  svc::SnapshotStore disk_only(cfg);
  EXPECT_NE(disk_only.get(date(35)), nullptr);
  EXPECT_EQ(disk_only.get(date(36)), nullptr) << "no file, no compiler";

  write_file(disk_only.path_for(date(37)), "garbage");
  EXPECT_THROW(disk_only.get(date(37)), svc::SnapshotFormatError)
      << "without a compiler, corruption must surface to the caller";
}

// ---------------------------------------------------------------------------
// Delta files (format version 2): round-trip fidelity, hostile bytes, and
// base-chain resolution through the store.

// Tomorrow's world relative to make_golden_snapshot(): mostly the same
// structures with day-over-day edits that exercise every patch shape — pure
// copy (rir unchanged), literal inserts (new route, as0 appears), value
// edits (rov flip, incident cleared), and deletions (a drop delisting).
svc::Snapshot make_golden_next() {
  net::IntervalSet routed;
  routed.insert(P("1.0.0.0/8"));
  routed.insert(P("9.9.0.0/16"));
  routed.insert(P("11.0.0.0/8"));  // new route
  routed.insert(P("203.0.113.0/24"));
  net::IntervalSet as0;
  as0.insert(P("100.64.0.0/10"));  // was empty yesterday
  net::IntervalSet irr;
  irr.insert(P("9.9.8.0/22"));
  net::IntervalSet allocated;
  allocated.insert(P("1.0.0.0/8"));
  allocated.insert(P("9.0.0.0/8"));
  allocated.insert(P("203.0.0.0/8"));

  net::SegmentMap<svc::Snapshot::DropInfo> drop;
  drop.assign(P("1.2.3.0/24"), svc::Snapshot::DropInfo{0x21, 0});  // resolved
  drop.finalize();  // 9.9.9.0/24 delisted overnight
  net::SegmentMap<uint8_t> rov;
  rov.assign(P("1.0.0.0/8"), 2);
  rov.assign(P("1.2.0.0/16"), 0);  // invalid -> valid (ROA fixed)
  rov.assign(P("203.0.113.0/24"), 0);
  rov.finalize();
  net::SegmentMap<uint8_t> rir;  // unchanged: encodes as one copy op
  rir.assign(P("1.0.0.0/8"), 0);
  rir.assign(P("9.0.0.0/8"), 3);
  rir.assign(P("203.0.0.0/8"), 4);
  rir.finalize();

  return svc::Snapshot(8, net::Date::parse("2019-08-05"), 0x00,
                       std::move(routed), std::move(as0), std::move(irr),
                       std::move(allocated), std::move(drop), std::move(rov),
                       std::move(rir));
}

// The delta twin of SerializedBytesMatchCheckedInFixture: the golden next
// day as patches over the golden snapshot, pinned byte for byte, so a writer
// change that alters delta bytes fails here rather than in another build's
// loader.
TEST(SnapshotGolden, DeltaBytesMatchCheckedInFixture) {
  const std::string bytes = svc::serialize_snapshot_delta(
      make_golden_next(), make_golden_snapshot());
  const std::string fixture_path = DROPLENS_GOLDEN_DELTA;

  if (std::getenv("DROPLENS_UPDATE_GOLDEN") != nullptr) {
    write_file(fixture_path, bytes);
    GTEST_SKIP() << "regenerated " << fixture_path << " (" << bytes.size()
                 << " bytes)";
  }

  const std::string fixture = read_file(fixture_path);
  ASSERT_EQ(bytes.size(), fixture.size())
      << "serialized delta size drifted from the checked-in fixture; if the "
         "format changed on purpose, bump kSnapshotDeltaFormatVersion and "
         "rerun with DROPLENS_UPDATE_GOLDEN=1";
  ASSERT_TRUE(bytes == fixture)
      << "serialized delta bytes drifted from the checked-in fixture at "
         "offset "
      << std::distance(
             fixture.begin(),
             std::mismatch(fixture.begin(), fixture.end(), bytes.begin())
                 .first);

  // The checked-in bytes load over the golden base as the golden next day.
  auto loaded =
      svc::load_snapshot_delta(fixture_path, make_golden_snapshot(), 1);
  expect_identical_answers(make_golden_next(), *loaded, golden_probes());
}

// reseal_header/reseal_segment for the 216-byte delta header layout.
void reseal_delta_header(std::string& bytes) {
  svc::SnapshotDeltaHeader h{};
  ASSERT_GE(bytes.size(), sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  h.header_crc32c = 0;
  poke<uint32_t>(bytes, offsetof(svc::SnapshotDeltaHeader, header_crc32c),
                 util::crc32c(&h, sizeof h));
}

void reseal_delta_segment(std::string& bytes, size_t seg) {
  svc::SnapshotDeltaHeader h{};
  ASSERT_GE(bytes.size(), sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  const svc::SegmentDesc& sd = h.segments[seg];
  ASSERT_LE(sd.offset + sd.length, bytes.size());
  poke<uint32_t>(bytes,
                 offsetof(svc::SnapshotDeltaHeader, segments) +
                     seg * sizeof(svc::SegmentDesc) +
                     offsetof(svc::SegmentDesc, crc32c),
                 util::crc32c(bytes.data() + sd.offset, sd.length));
  reseal_delta_header(bytes);
}

std::optional<svc::SnapshotIoError> reject_delta_code(
    const std::string& path, const std::string& bytes,
    const svc::Snapshot& base) {
  write_file(path, bytes);
  try {
    auto snap = svc::load_snapshot_delta(path, base, 1);
    ADD_FAILURE() << "delta loader accepted corrupted bytes ("
                  << bytes.size() << " bytes)";
    (void)snap;
    return std::nullopt;
  } catch (const svc::SnapshotFormatError& e) {
    return e.code();
  }
}

class SnapshotDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_shared<svc::Snapshot>(make_golden_snapshot());
    next_ = std::make_shared<svc::Snapshot>(make_golden_next());
    bytes_ = svc::serialize_snapshot_delta(*next_, *base_);
    path_ = tmp_.path("delta.dls");
    write_file(path_, bytes_);
  }

  TempDir tmp_;
  std::shared_ptr<svc::Snapshot> base_;
  std::shared_ptr<svc::Snapshot> next_;
  std::string bytes_;
  std::string path_;
};

TEST_F(SnapshotDeltaTest, RoundTripAnswersIdenticallyAndIsDeterministic) {
  EXPECT_EQ(bytes_, svc::serialize_snapshot_delta(*next_, *base_));

  auto loaded = svc::load_snapshot_delta(path_, *base_, 99);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->version(), 99u);
  EXPECT_EQ(loaded->date(), next_->date());
  EXPECT_EQ(loaded->degraded(), next_->degraded());
  sim::Rng rng(0xDE17A);
  expect_identical_answers(*next_, *loaded, golden_probes());
  expect_identical_answers(*next_, *loaded, fuzz_prefixes(rng, 5000));

  // save_snapshot_delta writes exactly the serialized bytes.
  const std::string saved = tmp_.path("delta_saved.dls");
  svc::save_snapshot_delta(*next_, *base_, saved);
  EXPECT_EQ(read_file(saved), bytes_);
}

TEST_F(SnapshotDeltaTest, DeltaIsSmallerThanTheKeyframe) {
  EXPECT_LT(bytes_.size(), svc::serialize_snapshot(*next_).size());
}

TEST_F(SnapshotDeltaTest, HeaderDeclaresKindVersionAndBase) {
  EXPECT_EQ(svc::snapshot_file_kind(path_), svc::SnapshotFileKind::kDelta);
  svc::SnapshotDeltaHeader h = svc::read_snapshot_delta_header(path_);
  EXPECT_EQ(h.format_version, svc::kSnapshotDeltaFormatVersion);
  EXPECT_EQ(net::Date(h.date_days), next_->date());
  EXPECT_EQ(net::Date(h.base_date_days), base_->date());
  EXPECT_EQ(h.writer_version, 8u);
  // Every patch stream is a byte stream: elem_size 1, strict layout.
  uint64_t cursor = sizeof(svc::SnapshotDeltaHeader);
  for (size_t s = 0; s < svc::kSnapshotSegmentCount; ++s) {
    EXPECT_EQ(h.segments[s].elem_size, 1u) << s;
    EXPECT_EQ(h.segments[s].offset, cursor) << s;
    cursor += h.segments[s].length;
  }
  EXPECT_EQ(cursor, bytes_.size());
}

TEST_F(SnapshotDeltaTest, FormatsAreMutuallyExclusiveByVersion) {
  // The keyframe loader rejects a delta cleanly, and vice versa — two
  // format versions coexisting in one directory can never cross-load.
  EXPECT_EQ(reject_code(path_, bytes_), svc::SnapshotIoError::kBadVersion);
  const std::string keyframe = tmp_.path("keyframe.dls");
  write_file(keyframe, svc::serialize_snapshot(*base_));
  EXPECT_EQ(svc::snapshot_file_kind(keyframe),
            svc::SnapshotFileKind::kKeyframe);
  EXPECT_EQ(reject_delta_code(keyframe, svc::serialize_snapshot(*base_),
                              *base_),
            svc::SnapshotIoError::kBadVersion);
}

TEST_F(SnapshotDeltaTest, EveryTruncationLengthRejectsTyped) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    std::optional<svc::SnapshotIoError> code =
        reject_delta_code(path_, bytes_.substr(0, len), *base_);
    ASSERT_TRUE(code.has_value()) << "accepted truncation to " << len;
  }
}

TEST_F(SnapshotDeltaTest, EverySingleBitFlipRejectsTyped) {
  // Header CRC covers the header; each patch stream has a segment CRC; the
  // reconstruction CRC pins the output. No flip may survive all three.
  for (size_t byte = 0; byte < bytes_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes_;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::optional<svc::SnapshotIoError> code =
          reject_delta_code(path_, mutated, *base_);
      ASSERT_TRUE(code.has_value())
          << "accepted bit flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(SnapshotDeltaTest, TruncatedPatchStreamIsBadLayout) {
  // Claim one more op than the stream holds, with every CRC resealed, so
  // the PatchReader's bounds check is the gate that must fire.
  svc::SnapshotDeltaHeader h{};
  std::memcpy(&h, bytes_.data(), sizeof h);
  std::string mutated = bytes_;
  // Patch stream layout: new_count u64, new_crc32c u32, op_count u32.
  poke<uint32_t>(mutated, h.segments[0].offset + 12,
                 read_le<uint32_t>(bytes_, h.segments[0].offset + 12) + 1);
  reseal_delta_segment(mutated, 0);
  EXPECT_EQ(reject_delta_code(path_, mutated, *base_),
            svc::SnapshotIoError::kBadLayout);
}

TEST_F(SnapshotDeltaTest, WrongBaseDateIsBadInvariant) {
  // A base whose date differs from the declared one is refused outright.
  EXPECT_EQ(reject_delta_code(path_, bytes_, *next_),
            svc::SnapshotIoError::kBadInvariant);
}

TEST_F(SnapshotDeltaTest, WrongBaseContentFailsTheReconstructionCrc) {
  // Right date, wrong bytes: a copy op pulls different content, and the
  // end-to-end reconstruction CRC is what catches it.
  svc::Snapshot tampered = make_golden_snapshot();
  net::SegmentMap<uint8_t> rir;  // one value differs from the real base
  rir.assign(P("1.0.0.0/8"), 0);
  rir.assign(P("9.0.0.0/8"), 2);  // was 3
  rir.assign(P("203.0.0.0/8"), 4);
  rir.finalize();
  svc::Snapshot base2(
      7, base_->date(), base_->degraded(), net::IntervalSet(base_->routed()),
      net::IntervalSet(base_->as0()), net::IntervalSet(base_->irr()),
      net::IntervalSet(base_->allocated()),
      net::SegmentMap<svc::Snapshot::DropInfo>(tampered.drop()),
      net::SegmentMap<uint8_t>(tampered.rov()), std::move(rir));
  EXPECT_EQ(reject_delta_code(path_, bytes_, base2),
            svc::SnapshotIoError::kBadSegmentCrc);
}

TEST_F(SnapshotDeltaTest, NonEarlierBaseIsRefusedAtWriteTime) {
  EXPECT_THROW(svc::serialize_snapshot_delta(*base_, *next_), InvariantError);
  EXPECT_THROW(svc::serialize_snapshot_delta(*base_, *base_), InvariantError);
}

TEST_F(SnapshotDeltaTest, BaseNotEarlierInFileIsBadInvariant) {
  // Patch the declared base date to equal the file's own date (a would-be
  // self-reference/cycle) — the loader must refuse before touching patches.
  std::string mutated = bytes_;
  poke<int32_t>(mutated, offsetof(svc::SnapshotDeltaHeader, base_date_days),
                next_->date().days());
  reseal_delta_header(mutated);
  EXPECT_EQ(reject_delta_code(path_, mutated, *next_),
            svc::SnapshotIoError::kBadInvariant);
}

// ---------------------------------------------------------------------------
// Header stages over both kinds. Keyframes and deltas share one header
// validator, so each header defect must draw the same typed code from both
// kinds, and from a kind's loader and its header-only reader alike.

template <typename H>
struct HeaderKind;

template <>
struct HeaderKind<svc::SnapshotHeader> {
  static std::string bytes() {
    return svc::serialize_snapshot(make_golden_snapshot());
  }
  static void load(const std::string& path) { svc::load_snapshot(path, 1); }
  static void read_header(const std::string& path) {
    svc::read_snapshot_header(path);
  }
};

template <>
struct HeaderKind<svc::SnapshotDeltaHeader> {
  static std::string bytes() {
    return svc::serialize_snapshot_delta(make_golden_next(),
                                         make_golden_snapshot());
  }
  static void load(const std::string& path) {
    svc::load_snapshot_delta(path, make_golden_snapshot(), 1);
  }
  static void read_header(const std::string& path) {
    svc::read_snapshot_delta_header(path);
  }
};

struct HeaderKindName {
  template <typename H>
  static std::string GetName(int) {
    return std::is_same_v<H, svc::SnapshotDeltaHeader> ? "Delta" : "Keyframe";
  }
};

template <typename H>
class SnapshotHeaderCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = HeaderKind<H>::bytes();
    std::memcpy(&header_, bytes_.data(), sizeof header_);
    path_ = tmp_.path("header.dls");
  }

  // The typed code `fn` throws, or nullopt if it returns.
  template <typename Fn>
  static std::optional<svc::SnapshotIoError> code_of(Fn&& fn) {
    try {
      fn();
      return std::nullopt;
    } catch (const svc::SnapshotFormatError& e) {
      return e.code();
    }
  }

  // Write `bytes`; the loader and the header reader must reject them with
  // one code, which is returned.
  std::optional<svc::SnapshotIoError> reject(const std::string& bytes) {
    write_file(path_, bytes);
    std::optional<svc::SnapshotIoError> loaded =
        code_of([&] { HeaderKind<H>::load(path_); });
    EXPECT_EQ(code_of([&] { HeaderKind<H>::read_header(path_); }), loaded)
        << "header reader and loader disagree";
    return loaded;
  }

  void reseal(std::string& bytes) const {
    H h;
    std::memcpy(&h, bytes.data(), sizeof h);
    h.header_crc32c = 0;
    poke<uint32_t>(bytes, offsetof(H, header_crc32c),
                   util::crc32c(&h, sizeof h));
  }

  size_t seg_desc_at(size_t seg, size_t field_offset) const {
    return offsetof(H, segments) + seg * sizeof(svc::SegmentDesc) +
           field_offset;
  }

  TempDir tmp_;
  std::string bytes_;
  std::string path_;
  H header_;
};

using HeaderTypes =
    ::testing::Types<svc::SnapshotHeader, svc::SnapshotDeltaHeader>;
TYPED_TEST_SUITE(SnapshotHeaderCorruption, HeaderTypes, HeaderKindName);

TYPED_TEST(SnapshotHeaderCorruption, ShortOrEmptyFileIsTruncated) {
  EXPECT_EQ(this->reject(""), svc::SnapshotIoError::kTruncated);
  for (size_t len = 1; len < this->bytes_.size(); ++len) {
    // Short of the header or of the declared length: truncated either way.
    ASSERT_EQ(this->reject(this->bytes_.substr(0, len)),
              svc::SnapshotIoError::kTruncated)
        << len;
  }
}

TYPED_TEST(SnapshotHeaderCorruption, WrongMagicIsBadMagic) {
  std::string mutated = this->bytes_;
  mutated[0] = 'X';
  EXPECT_EQ(this->reject(mutated), svc::SnapshotIoError::kBadMagic);
}

TYPED_TEST(SnapshotHeaderCorruption, OtherKindsVersionIsBadVersion) {
  for (uint32_t version : {svc::kSnapshotFormatVersion,
                           svc::kSnapshotDeltaFormatVersion, uint32_t{3}}) {
    if (version == this->header_.format_version) continue;
    std::string mutated = this->bytes_;
    poke<uint32_t>(mutated, offsetof(TypeParam, format_version), version);
    this->reseal(mutated);
    EXPECT_EQ(this->reject(mutated), svc::SnapshotIoError::kBadVersion)
        << version;
  }
}

TYPED_TEST(SnapshotHeaderCorruption, FlippedReservedByteIsBadHeaderCrc) {
  std::string mutated = this->bytes_;
  mutated[offsetof(TypeParam, reserved)] = 0x7f;
  EXPECT_EQ(this->reject(mutated), svc::SnapshotIoError::kBadHeaderCrc);
}

TYPED_TEST(SnapshotHeaderCorruption, OversizedDeclaredFileLengthIsTruncated) {
  std::string mutated = this->bytes_;
  poke<uint64_t>(mutated, offsetof(TypeParam, file_length), uint64_t{1} << 50);
  this->reseal(mutated);
  EXPECT_EQ(this->reject(mutated), svc::SnapshotIoError::kTruncated);
}

TYPED_TEST(SnapshotHeaderCorruption, TrailingBytesAreBadLayout) {
  EXPECT_EQ(this->reject(this->bytes_ + std::string(64, '\xab')),
            svc::SnapshotIoError::kBadLayout);
}

TYPED_TEST(SnapshotHeaderCorruption, UnknownDegradedBitsAreBadInvariant) {
  std::string mutated = this->bytes_;
  poke<uint8_t>(mutated, offsetof(TypeParam, degraded), 0xff);
  this->reseal(mutated);
  EXPECT_EQ(this->reject(mutated), svc::SnapshotIoError::kBadInvariant);
}

TYPED_TEST(SnapshotHeaderCorruption, SegmentTableDefectsAreBadLayout) {
  {
    std::string shifted = this->bytes_;
    poke<uint64_t>(shifted,
                   this->seg_desc_at(2, offsetof(svc::SegmentDesc, offset)),
                   this->header_.segments[2].offset + 8);
    this->reseal(shifted);
    EXPECT_EQ(this->reject(shifted), svc::SnapshotIoError::kBadLayout);
  }
  {
    std::string resized = this->bytes_;  // neither kind's size for segment 0
    poke<uint32_t>(resized,
                   this->seg_desc_at(0, offsetof(svc::SegmentDesc, elem_size)),
                   this->header_.segments[0].elem_size + 1);
    this->reseal(resized);
    EXPECT_EQ(this->reject(resized), svc::SnapshotIoError::kBadLayout);
  }
  for (uint64_t huge : {uint64_t{1} << 40, uint64_t{1} << 60}) {
    std::string oversized = this->bytes_;
    poke<uint64_t>(oversized,
                   this->seg_desc_at(0, offsetof(svc::SegmentDesc, length)),
                   huge);
    this->reseal(oversized);
    EXPECT_EQ(this->reject(oversized), svc::SnapshotIoError::kBadLayout)
        << huge;
  }
}

TYPED_TEST(SnapshotHeaderCorruption, CorruptedSegmentCrcFieldFailsOnlyTheLoad) {
  std::string mutated = this->bytes_;
  poke<uint32_t>(mutated,
                 this->seg_desc_at(0, offsetof(svc::SegmentDesc, crc32c)),
                 this->header_.segments[0].crc32c ^ 0xdeadbeef);
  this->reseal(mutated);
  write_file(this->path_, mutated);
  EXPECT_EQ(this->code_of([&] { HeaderKind<TypeParam>::load(this->path_); }),
            svc::SnapshotIoError::kBadSegmentCrc);
  // The header itself is consistent, and the header reader never reads the
  // segment bytes its CRCs cover.
  EXPECT_EQ(
      this->code_of([&] { HeaderKind<TypeParam>::read_header(this->path_); }),
      std::nullopt);
}

// Store-level chain resolution: keyframe + delta + delta on disk.
TEST_F(SnapshotStoreTest, StoreResolvesDeltaChains) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  svc::SnapshotStore writer(cfg, &*store_study_, index_.get());
  auto s0 = writer.get(date(20));
  auto s1 = writer.get(date(21));
  auto s2 = writer.get(date(22));
  svc::save_snapshot_delta(*s1, *s0, writer.path_for(date(21)));
  svc::save_snapshot_delta(*s2, *s1, writer.path_for(date(22)));

  svc::SnapshotStore disk_only(cfg);
  auto chained = disk_only.get(date(22));
  ASSERT_NE(chained, nullptr);
  svc::SnapshotStore::Stats stats = disk_only.stats();
  EXPECT_EQ(stats.loads, 1u);        // the keyframe anchor
  EXPECT_EQ(stats.delta_loads, 2u);  // both hops
  EXPECT_EQ(disk_only.resident_count(), 3u) << "bases land in the LRU";
  expect_identical_answers(*s2, *chained, slash8_sweep());
  // The intermediate hop is resident: serving it is a hit, not a load.
  auto mid = disk_only.get(date(21));
  EXPECT_EQ(disk_only.stats().resident_hits, 1u);
  expect_identical_answers(*s1, *mid, slash8_sweep());
}

TEST_F(SnapshotStoreTest, BrokenKeyframeUnderADeltaHealsOrSurfaces) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  std::shared_ptr<const svc::Snapshot> s0, s1;
  {
    svc::SnapshotStore writer(cfg, &*store_study_, index_.get());
    s0 = writer.get(date(20));
    s1 = writer.get(date(21));
    svc::save_snapshot_delta(*s1, *s0, writer.path_for(date(21)));
  }
  // Smash the keyframe the delta chain hangs from.
  svc::SnapshotStore probe(cfg);
  write_file(probe.path_for(date(20)), "not a snapshot");

  // Without a compiler the broken chain must surface, on every call.
  EXPECT_THROW(probe.get(date(21)), svc::SnapshotFormatError);
  EXPECT_THROW(probe.get(date(21)), svc::SnapshotFormatError)
      << "failures must not be cached";

  // With a compiler the base heals (recompiled + re-saved as a keyframe)
  // and the delta then applies over it — compile determinism makes the
  // reconstruction CRC pass.
  svc::SnapshotStore healer(cfg, &*store_study_, index_.get());
  auto healed = healer.get(date(21));
  ASSERT_NE(healed, nullptr);
  svc::SnapshotStore::Stats stats = healer.stats();
  EXPECT_EQ(stats.load_failures, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.delta_loads, 1u);
  expect_identical_answers(*s1, *healed, slash8_sweep());
}

TEST_F(SnapshotStoreTest, TruncatedDeltaHealsToKeyframeWithACompiler) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  std::shared_ptr<const svc::Snapshot> s0, s1;
  {
    svc::SnapshotStore writer(cfg, &*store_study_, index_.get());
    s0 = writer.get(date(20));
    s1 = writer.get(date(21));
    svc::save_snapshot_delta(*s1, *s0, writer.path_for(date(21)));
  }
  svc::SnapshotStore probe(cfg);
  const std::string delta_path = probe.path_for(date(21));
  std::string truncated = read_file(delta_path);
  truncated.resize(truncated.size() - 7);
  write_file(delta_path, truncated);

  EXPECT_THROW(probe.get(date(21)), svc::SnapshotFormatError);

  svc::SnapshotStore healer(cfg, &*store_study_, index_.get());
  auto healed = healer.get(date(21));
  ASSERT_NE(healed, nullptr);
  expect_identical_answers(*s1, *healed, slash8_sweep());
  // The heal re-saved the day as a keyframe; a fresh disk-only store now
  // serves it without a chain.
  svc::SnapshotStore after(cfg);
  EXPECT_EQ(svc::snapshot_file_kind(delta_path),
            svc::SnapshotFileKind::kKeyframe);
  EXPECT_NE(after.get(date(21)), nullptr);
  EXPECT_EQ(after.stats().delta_loads, 0u);
}

TEST_F(SnapshotStoreTest, MissingDeltaBaseSurfacesWithoutACompiler) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  {
    svc::SnapshotStore writer(cfg, &*store_study_, index_.get());
    auto s0 = writer.get(date(20));
    auto s1 = writer.get(date(21));
    svc::save_snapshot_delta(*s1, *s0, writer.path_for(date(21)));
  }
  svc::SnapshotStore probe(cfg);
  fs::remove(probe.path_for(date(20)));
  EXPECT_THROW(probe.get(date(21)), svc::SnapshotFormatError);
}

TEST_F(SnapshotStoreTest, OnDiskListsParsedDatesAndIgnoresJunk) {
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  svc::SnapshotStore store(cfg, &*store_study_, index_.get());
  store.get(date(22));
  store.get(date(20));
  write_file(tmp.path("notes.txt"), "junk");
  write_file(tmp.path("20190230.dls"), "junk");  // impossible date
  write_file(tmp.path("2019080.dls"), "junk");   // wrong name length

  std::vector<net::Date> dates = store.on_disk();
  ASSERT_EQ(dates.size(), 2u);
  EXPECT_EQ(dates[0], date(20));
  EXPECT_EQ(dates[1], date(22));
  EXPECT_EQ(svc::SnapshotStore::file_name(net::Date::parse("2019-08-04")),
            "20190804.dls");
}

}  // namespace
}  // namespace droplens
