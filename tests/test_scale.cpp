// The full-table scale tier (`ctest -L scale`).
//
// Builds one seeded full-table-magnitude fixture — generate_scale() →
// compile_snapshot() → `.dls` in the build tree — and proves the fast data
// plane at that magnitude: the compiled and the mmap-loaded snapshot answer
// byte-identically to the plain upper_bound reference path, through
// Snapshot::lookup_batch and through real svc::Server frames, for any
// thread count, and the delta writer/loader round-trips million-element
// segment arrays exactly.
//
// The fixture `.dls` is cached under DROPLENS_SCALE_FIXTURE_DIR: the first
// run in a build tree generates the world and compiles (the expensive
// step); later runs mmap the cached file and skip generation. The whole
// binary is registered as ONE ctest test so every case shares the fixture
// within a single process. Magnitude defaults to 1M routed prefixes in
// plain builds and 200K under ASan/TSan (instrumented runs cost ~5-10x);
// DROPLENS_SCALE_PREFIXES overrides either.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "sim/scale.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "trie_oracle.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DROPLENS_SCALE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DROPLENS_SCALE_SANITIZED 1
#endif
#endif

namespace droplens {
namespace {

size_t scale_prefix_count() {
  if (const char* env = std::getenv("DROPLENS_SCALE_PREFIXES")) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
#ifdef DROPLENS_SCALE_SANITIZED
  return 200'000;
#else
  return 1'000'000;
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The shared fixture: built (or loaded from cache) once per process.
struct ScaleFixture {
  sim::ScaleConfig config;
  std::string path;
  // Set only on a cold cache, when the world was generated and compiled —
  // through a SnapshotCache's lifetime tables, and again through the
  // substrates' tries by the test oracle (trie_oracle.hpp).
  std::unique_ptr<sim::World> world;
  std::shared_ptr<const svc::Snapshot> compiled;
  std::shared_ptr<const svc::Snapshot> trie_compiled;
  // Always set: the mmap view over the fixture file.
  std::shared_ptr<const svc::Snapshot> loaded;

  static const ScaleFixture& get() {
    static ScaleFixture* f = [] {
      auto* fx = new ScaleFixture;
      fx->config.routed_prefixes = scale_prefix_count();
      const std::string dir = DROPLENS_SCALE_FIXTURE_DIR;
      std::filesystem::create_directories(dir);
      fx->path = dir + "/scale_" + std::to_string(fx->config.routed_prefixes) +
                 "_" + std::to_string(fx->config.seed) + ".dls";
      if (!std::filesystem::exists(fx->path)) {
        fx->world = sim::generate_scale(fx->config);
        core::SnapshotCache cache(fx->world->registry, fx->world->fleet,
                                  fx->world->roas, fx->world->drop,
                                  &fx->world->irr);
        core::Study study{fx->world->registry, fx->world->fleet,
                          fx->world->irr,      fx->world->roas,
                          fx->world->drop,     fx->world->sbl,
                          fx->world->config.window_begin,
                          fx->world->config.window_end};
        study.snapshots = &cache;
        const core::DropIndex index = core::DropIndex::build(study);
        fx->compiled = svc::compile_snapshot(study, index, fx->config.day, 1);
        fx->trie_compiled =
            oracle::compile_snapshot(study, index, fx->config.day, 1);
        // save_snapshot writes tmp + rename, so concurrent cold runs in one
        // build tree each produce a complete file and the rename wins race-
        // free.
        svc::save_snapshot(*fx->compiled, fx->path);
      }
      fx->loaded = svc::load_snapshot(fx->path, 1);
      return fx;
    }();
    return *f;
  }
};

/// Deterministic probe corpus: interval boundaries of every substrate plus
/// seeded randoms, at mixed prefix lengths.
std::vector<net::Prefix> probe_corpus(const svc::Snapshot& snap, size_t want) {
  std::vector<net::Prefix> probes;
  std::mt19937_64 rng(0x5CA1E);
  auto add = [&](uint64_t addr, int len) {
    if (addr >= (uint64_t{1} << 32)) return;
    probes.push_back(
        net::Prefix::containing(net::Ipv4(static_cast<uint32_t>(addr)), len));
  };
  const auto ivs = snap.routed().intervals();
  const size_t stride = std::max<size_t>(1, ivs.size() / (want / 8));
  for (size_t i = 0; i < ivs.size(); i += stride) {
    add(ivs[i].begin == 0 ? 0 : ivs[i].begin - 1, 24);
    add(ivs[i].begin, 24);
    add(ivs[i].end - 1, 32);
    add(ivs[i].end, 22);
  }
  while (probes.size() < want) {
    add(rng() % (uint64_t{1} << 32), 8 + static_cast<int>(rng() % 25));
  }
  return probes;
}

TEST(ScaleTier, FixtureHasFullTableMagnitude) {
  const ScaleFixture& fx = ScaleFixture::get();
  const size_t n = fx.config.routed_prefixes;
  // The carved prefixes coalesce across non-gap neighbours; with the
  // default gap_rate the interval count stays within a small factor of the
  // prefix count, and the search arrays are genuinely at scale.
  EXPECT_GE(fx.loaded->routed().interval_count(), n / 4);
  EXPECT_GE(fx.loaded->rov().segment_count(), n / 4);
  EXPECT_TRUE(fx.loaded->routed().has_fast_index());
  EXPECT_TRUE(fx.loaded->rov().has_fast_index());
  EXPECT_TRUE(fx.loaded->drop().has_fast_index());
  EXPECT_GT(fx.loaded->drop().segment_count(), 1000u);
  if (fx.compiled) {
    EXPECT_EQ(fx.compiled->routed().interval_count(),
              fx.loaded->routed().interval_count());
  }
}

TEST(ScaleTier, DlsRoundTripIsByteIdentical) {
  const ScaleFixture& fx = ScaleFixture::get();
  const std::string file_bytes = read_file(fx.path);
  ASSERT_FALSE(file_bytes.empty());
  // Loading a full-table file and re-serializing the view reproduces the
  // bytes exactly: the Eytzinger overlay never leaks into the format.
  EXPECT_EQ(svc::serialize_snapshot(*fx.loaded), file_bytes);
  if (fx.compiled) {
    EXPECT_EQ(svc::serialize_snapshot(*fx.compiled), file_bytes);
    // The trie compile gives the same bytes as the table scans and the ROV
    // sweep at scale.
    EXPECT_EQ(svc::serialize_snapshot(*fx.trie_compiled), file_bytes);
  }
}

TEST(ScaleTier, BatchedAnswersMatchReferenceAtScale) {
  const ScaleFixture& fx = ScaleFixture::get();
  const svc::Snapshot& snap = *fx.loaded;
  const std::vector<net::Prefix> probes = probe_corpus(snap, 40'000);
  std::vector<uint8_t> fields(probes.size());
  std::mt19937_64 rng(0xF1E1D);
  for (uint8_t& f : fields) {
    f = static_cast<uint8_t>(1 + rng() % svc::kAllFields);
  }
  std::vector<svc::Answer> batched(probes.size());
  snap.lookup_batch(probes, fields, batched);
  for (size_t i = 0; i < probes.size(); ++i) {
    const svc::Answer ref = snap.lookup_reference(probes[i], fields[i]);
    ASSERT_EQ(batched[i], ref) << probes[i].to_string();
    ASSERT_EQ(snap.lookup(probes[i], fields[i]), ref) << probes[i].to_string();
  }
  if (fx.compiled) {
    // Compiled and loaded snapshots are distinct structures (owned arrays
    // vs mmap views); they must agree answer for answer.
    std::vector<svc::Answer> from_compiled(probes.size());
    fx.compiled->lookup_batch(probes, fields, from_compiled);
    EXPECT_EQ(from_compiled, batched);
  }
}

TEST(ScaleTier, ServerFramesAreByteIdenticalAcrossThreadCounts) {
  const ScaleFixture& fx = ScaleFixture::get();
  const std::vector<net::Prefix> probes = probe_corpus(*fx.loaded, 16'384);
  std::vector<std::string> requests;
  for (size_t begin = 0; begin < probes.size(); begin += svc::kMaxBatch) {
    std::vector<svc::Query> frame;
    for (size_t i = begin;
         i < std::min(probes.size(), begin + svc::kMaxBatch); ++i) {
      frame.push_back(
          svc::Query{fx.loaded->date(), probes[i], svc::kAllFields});
    }
    requests.push_back(svc::encode_query_request(frame));
  }
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server sequential(history);
  sequential.publish(fx.loaded);
  util::ThreadPool pool(4);
  svc::Server pooled(history, &pool);
  pooled.publish(fx.loaded);
  for (const std::string& req : requests) {
    const std::string a = sequential.serve(req);
    const std::string b = pooled.serve(req);
    ASSERT_EQ(a, b);
    // Every wire answer equals the reference path's answer.
    const svc::QueryResponse decoded =
        svc::decode_query_response(svc::frame_payload(a));
    const std::vector<svc::Query> queries =
        svc::decode_query_request(svc::frame_payload(req));
    ASSERT_EQ(decoded.answers.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(decoded.answers[i],
                fx.loaded->lookup_reference(queries[i].prefix, svc::kAllFields))
          << queries[i].prefix.to_string();
    }
  }
}

TEST(ScaleTier, DeltaRoundTripsMillionElementSegments) {
  const ScaleFixture& fx = ScaleFixture::get();
  // A day-over-day delta at full-table scale: perturb the loaded arrays
  // (drop some intervals, keep the bulk) into a second snapshot, write the
  // patch, and reload it over the base. Exercises diff_segment's u32 op
  // fields with million-element copy runs and large start offsets — the
  // satellite's truncation audit pin.
  const svc::Snapshot& base = *fx.loaded;
  std::vector<net::IntervalSet::Interval> routed(
      base.routed().intervals().begin(), base.routed().intervals().end());
  ASSERT_GT(routed.size(), 1000u);
  routed.erase(routed.begin() + static_cast<std::ptrdiff_t>(routed.size() / 2));
  routed.pop_back();
  svc::Snapshot next(
      2, base.date() + 1, base.degraded(),
      net::IntervalSet::from_sorted(routed),
      net::IntervalSet::view(base.as0().intervals()),
      net::IntervalSet::view(base.irr().intervals()),
      net::IntervalSet::view(base.allocated().intervals()),
      net::SegmentMap<svc::Snapshot::DropInfo>::view(base.drop().segments()),
      net::SegmentMap<uint8_t>::view(base.rov().segments()),
      net::SegmentMap<uint8_t>::view(base.rir().segments()));
  const std::string delta_path = fx.path + ".delta-test";
  svc::save_snapshot_delta(next, base, delta_path);
  const std::shared_ptr<const svc::Snapshot> reloaded =
      svc::load_snapshot_delta(delta_path, base, 2);
  EXPECT_EQ(svc::serialize_snapshot(*reloaded), svc::serialize_snapshot(next));
  EXPECT_TRUE(reloaded->routed().has_fast_index());
  std::filesystem::remove(delta_path);
}

TEST(ScaleTier, WireGuardsRejectOversizedCounts) {
  // Regression pins for the 32-bit audit: the u32 wire-field guard must
  // throw — not wrap — past 2^32, and the batch codec refuses frames past
  // kMaxBatch rather than truncating the u16 count.
  EXPECT_EQ(svc::detail::checked_u32((uint64_t{1} << 32) - 1, "x"),
            0xffffffffu);
  EXPECT_THROW(svc::detail::checked_u32(uint64_t{1} << 32, "x"),
               svc::SnapshotFormatError);
  std::vector<svc::Query> oversized(
      svc::kMaxBatch + 1,
      svc::Query{net::Date::from_ymd(2022, 1, 15),
                 net::Prefix::containing(net::Ipv4(0x01010100), 24),
                 svc::kAllFields});
  EXPECT_THROW(svc::encode_query_request(oversized), InvariantError);
}

}  // namespace
}  // namespace droplens
