// Differential property tests for the Eytzinger fast path.
//
// Every accelerated answer — scalar and batched, on EytzingerIndex itself,
// on both substrates, and on assembled Snapshots — is cross-checked against
// the plain std::upper_bound reference over randomized and adversarial
// shapes: dense /24 runs, singleton intervals, full-range spans, empty
// sets, duplicate-heavy key arrays, and boundary probes at begin-1 / begin
// / end-1 / end of every element. Runs under both the ASan and TSan CI
// presets (label `scale`); the multi-thread hammer at the bottom is the
// TSan gate for the read-only index contract.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/eytzinger.hpp"
#include "net/interval_set.hpp"
#include "net/segment_map.hpp"
#include "svc/snapshot.hpp"

namespace droplens {
namespace {

using net::EytzingerIndex;
using net::IntervalSet;
using net::Prefix;
using net::SegmentMap;

// ---------------------------------------------------------------- index --

std::vector<uint64_t> random_sorted_keys(std::mt19937_64& rng, size_t n,
                                         uint64_t universe, bool dupes) {
  std::vector<uint64_t> keys(n);
  for (uint64_t& k : keys) k = rng() % universe;
  if (dupes && n > 4) {
    // Force runs of equal keys — upper_bound must land after the whole run.
    for (size_t i = 0; i + 1 < n; i += 3) keys[i + 1] = keys[i];
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void check_index_matches_std(const std::vector<uint64_t>& keys,
                             const std::vector<uint64_t>& probes) {
  EytzingerIndex idx;
  idx.build(keys.size(), [&](size_t i) { return keys[i]; });
  ASSERT_TRUE(idx.built());
  ASSERT_EQ(idx.size(), keys.size());
  std::vector<uint32_t> batch(probes.size());
  idx.upper_bound_batch(probes, batch.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto expect = static_cast<uint32_t>(
        std::upper_bound(keys.begin(), keys.end(), probes[i]) - keys.begin());
    ASSERT_EQ(idx.upper_bound(probes[i]), expect)
        << "scalar, probe " << probes[i] << " over n=" << keys.size();
    ASSERT_EQ(batch[i], expect)
        << "batched, probe " << probes[i] << " over n=" << keys.size();
  }
}

TEST(EytzingerIndex, MatchesStdUpperBoundAcrossSizes) {
  std::mt19937_64 rng(0xE17);
  // Power-of-two boundaries stress the padded-tree layout; the probe list
  // hits every key and its neighbours plus randoms.
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 255u,
                   256u, 257u, 1000u, 4095u, 4096u, 4097u}) {
    for (bool dupes : {false, true}) {
      std::vector<uint64_t> keys =
          random_sorted_keys(rng, n, uint64_t{1} << 32, dupes);
      std::vector<uint64_t> probes;
      for (uint64_t k : keys) {
        if (k > 0) probes.push_back(k - 1);
        probes.push_back(k);
        probes.push_back(k + 1);
      }
      for (int i = 0; i < 64; ++i) probes.push_back(rng() % (uint64_t{1} << 33));
      probes.push_back(0);
      probes.push_back(~uint64_t{0} >> 1);
      check_index_matches_std(keys, probes);
    }
  }
}

TEST(EytzingerIndex, BatchTailsOfEveryLength) {
  // The batched path splits into 16-lane stripes plus a scalar tail; cover
  // every tail length and the empty batch.
  std::mt19937_64 rng(0xBA7C);
  std::vector<uint64_t> keys = random_sorted_keys(rng, 1000, 1 << 20, true);
  EytzingerIndex idx;
  idx.build(keys.size(), [&](size_t i) { return keys[i]; });
  for (size_t len = 0; len <= 40; ++len) {
    std::vector<uint64_t> probes(len);
    for (uint64_t& p : probes) p = rng() % (1 << 21);
    std::vector<uint32_t> out(len, 0xdeadbeef);
    idx.upper_bound_batch(probes, out.data());
    for (size_t i = 0; i < len; ++i) {
      EXPECT_EQ(out[i], static_cast<uint32_t>(
                            std::upper_bound(keys.begin(), keys.end(),
                                             probes[i]) -
                            keys.begin()));
    }
  }
}

TEST(EytzingerIndex, ClearAndRebuild) {
  EytzingerIndex idx;
  idx.build(3, [](size_t i) { return uint64_t{10} * (i + 1); });
  EXPECT_EQ(idx.upper_bound(15), 1u);
  idx.clear();
  EXPECT_FALSE(idx.built());
  idx.build(1, [](size_t) { return uint64_t{7}; });
  EXPECT_EQ(idx.upper_bound(6), 0u);
  EXPECT_EQ(idx.upper_bound(7), 1u);
}

// ----------------------------------------------------------- substrates --

// Adversarial interval shapes the issue calls out, plus randomized sets.
std::vector<IntervalSet> adversarial_sets() {
  std::vector<IntervalSet> sets;
  sets.emplace_back();  // empty
  {
    IntervalSet s;  // full range
    s.insert(0, uint64_t{1} << 32);
    sets.push_back(std::move(s));
  }
  {
    IntervalSet s;  // singletons: single-address intervals, gap of one
    for (uint64_t a = 1 << 20; a < (1 << 20) + 4096; a += 2) s.insert(a, a + 1);
    sets.push_back(std::move(s));
  }
  {
    IntervalSet s;  // dense /24 run: adjacent except every 16th missing
    for (uint64_t i = 0; i < 2048; ++i) {
      if (i % 16 == 15) continue;
      const uint64_t b = (uint64_t{10} << 24) + i * 256;
      s.insert(b, b + 256);
    }
    sets.push_back(std::move(s));
  }
  {
    IntervalSet s;  // edges of the space
    s.insert(0, 1);
    s.insert((uint64_t{1} << 32) - 1, uint64_t{1} << 32);
    sets.push_back(std::move(s));
  }
  std::mt19937_64 rng(0x5E75);
  for (int k = 0; k < 8; ++k) {
    IntervalSet s;
    const int n = 1 << (2 * k % 11);
    for (int i = 0; i < n; ++i) {
      const uint64_t b = rng() % (uint64_t{1} << 32);
      const uint64_t len = 1 + rng() % 100'000;
      s.insert(b, std::min(b + len, uint64_t{1} << 32));
    }
    sets.push_back(std::move(s));
  }
  return sets;
}

std::vector<Prefix> probes_for(const IntervalSet& s, std::mt19937_64& rng) {
  std::vector<Prefix> probes;
  auto add = [&](uint64_t addr) {
    if (addr >= (uint64_t{1} << 32)) return;
    for (int len : {32, 24, 16, 8}) {
      probes.push_back(
          Prefix::containing(net::Ipv4(static_cast<uint32_t>(addr)), len));
    }
  };
  size_t budget = 512;  // cap boundary probes on huge sets
  for (const auto& iv : s.intervals()) {
    if (budget-- == 0) break;
    add(iv.begin == 0 ? 0 : iv.begin - 1);
    add(iv.begin);
    add(iv.end - 1);
    add(iv.end);
  }
  for (int i = 0; i < 256; ++i) add(rng() % (uint64_t{1} << 32));
  return probes;
}

TEST(IntervalSetDifferential, IndexedMatchesReference) {
  std::mt19937_64 rng(0xD1FF);
  for (IntervalSet& s : adversarial_sets()) {
    s.build_index();
    ASSERT_EQ(s.has_fast_index(), true);
    const std::vector<Prefix> probes = probes_for(s, rng);
    std::vector<uint64_t> addrs;
    for (const Prefix& p : probes) addrs.push_back(p.first());
    std::vector<uint8_t> got_contains(probes.size());
    std::vector<uint8_t> got_intersects(probes.size());
    s.contains_batch(addrs, got_contains.data());
    s.intersects_batch(probes, got_intersects.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      const Prefix& p = probes[i];
      const net::Ipv4 first(static_cast<uint32_t>(p.first()));
      ASSERT_EQ(s.contains(first), s.contains_reference(first))
          << p.to_string();
      ASSERT_EQ(s.covers(p), s.covers_reference(p)) << p.to_string();
      ASSERT_EQ(s.intersects(p), s.intersects_reference(p)) << p.to_string();
      ASSERT_EQ(got_contains[i] != 0, s.contains_reference(first))
          << p.to_string();
      ASSERT_EQ(got_intersects[i] != 0, s.intersects_reference(p))
          << p.to_string();
    }
  }
}

TEST(IntervalSetDifferential, MutationDropsIndexAndAnswersStayCorrect) {
  IntervalSet s;
  for (uint64_t i = 0; i < 100; ++i) s.insert(i * 1000, i * 1000 + 500);
  s.build_index();
  ASSERT_TRUE(s.has_fast_index());
  s.insert(50, 60);  // mutation invalidates the permutation
  EXPECT_FALSE(s.has_fast_index());
  EXPECT_TRUE(s.contains(net::Ipv4(55)));  // reference fallback still right
  s.build_index();
  EXPECT_TRUE(s.has_fast_index());
  EXPECT_TRUE(s.contains(net::Ipv4(55)));
  s.erase(50, 60);
  EXPECT_FALSE(s.has_fast_index());
  EXPECT_FALSE(s.contains(net::Ipv4(55)));
}

TEST(IntervalSetDifferential, ViewAndFromSortedCarryTheIndex) {
  std::vector<IntervalSet::Interval> ivs;
  for (uint64_t i = 0; i < 1000; ++i) {
    ivs.push_back({i * 512, i * 512 + 256});
  }
  IntervalSet v = IntervalSet::view(ivs);
  EXPECT_TRUE(v.has_fast_index());
  IntervalSet f = IntervalSet::from_sorted(ivs);
  EXPECT_TRUE(f.has_fast_index());
  for (uint64_t a : {uint64_t{0}, uint64_t{255}, uint64_t{256}, uint64_t{300},
                     uint64_t{511}, uint64_t{512}, uint64_t{999} * 512}) {
    const net::Ipv4 addr(static_cast<uint32_t>(a));
    EXPECT_EQ(v.contains(addr), v.contains_reference(addr));
    EXPECT_EQ(f.contains(addr), v.contains_reference(addr));
  }
}

TEST(SegmentMapDifferential, IndexedMatchesReference) {
  std::mt19937_64 rng(0x5E6);
  for (int shape = 0; shape < 6; ++shape) {
    SegmentMap<uint32_t> m;
    switch (shape) {
      case 0:
        break;  // empty
      case 1:
        m.assign(0, uint64_t{1} << 32, 7);  // full range
        break;
      case 2:  // dense /24 run, alternating values (no coalescing)
        for (uint64_t i = 0; i < 4096; ++i) {
          const uint64_t b = (uint64_t{20} << 24) + i * 256;
          m.assign(b, b + 256, static_cast<uint32_t>(i % 3));
        }
        break;
      case 3:  // singleton addresses
        for (uint64_t a = 100; a < 5000; a += 2) {
          m.assign(a, a + 1, static_cast<uint32_t>(a));
        }
        break;
      default:  // random paints, overwrite + merge
        for (int i = 0; i < 2000; ++i) {
          const uint64_t b = rng() % (uint64_t{1} << 32);
          const uint64_t e =
              std::min(b + 1 + rng() % 1'000'000, uint64_t{1} << 32);
          if (i % 2) {
            m.assign(b, e, static_cast<uint32_t>(rng() % 100));
          } else {
            m.merge(b, e, static_cast<uint32_t>(rng() % 100),
                    [](const std::optional<uint32_t>& old, uint32_t v) {
                      return old ? *old | v : v;
                    });
          }
        }
        break;
    }
    m.finalize();
    ASSERT_TRUE(m.has_fast_index());
    std::vector<uint64_t> probes;
    size_t budget = 1024;
    for (const auto& seg : m.segments()) {
      if (budget-- == 0) break;
      if (seg.begin > 0) probes.push_back(seg.begin - 1);
      probes.push_back(seg.begin);
      probes.push_back(seg.end - 1);
      if (seg.end < (uint64_t{1} << 32)) probes.push_back(seg.end);
    }
    for (int i = 0; i < 512; ++i) probes.push_back(rng() % (uint64_t{1} << 32));
    std::vector<const uint32_t*> batch(probes.size());
    m.lookup_batch(probes, batch.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      const uint32_t* ref = m.lookup_reference(probes[i]);
      const uint32_t* fast = m.lookup(probes[i]);
      ASSERT_EQ(fast == nullptr, ref == nullptr) << probes[i];
      ASSERT_EQ(batch[i] == nullptr, ref == nullptr) << probes[i];
      if (ref) {
        ASSERT_EQ(*fast, *ref) << probes[i];
        ASSERT_EQ(*batch[i], *ref) << probes[i];
      }
    }
    // A view over the finalized segments answers identically.
    SegmentMap<uint32_t> v = SegmentMap<uint32_t>::view(m.segments());
    ASSERT_TRUE(v.has_fast_index());
    for (uint64_t p : probes) {
      const uint32_t* a = v.lookup(p);
      const uint32_t* b = m.lookup_reference(p);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a) {
        ASSERT_EQ(*a, *b);
      }
    }
  }
}

/// The longest-match sweep against its paint oracle: assign() each prefix
/// least-specific-first (stable within a length), then finalize().
void expect_sweep_matches_paint(std::vector<std::pair<Prefix, uint8_t>> in) {
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end(),
                       [](const auto& a, const auto& b) {
                         return a.first == b.first;
                       }),
           in.end());
  const SegmentMap<uint8_t> swept =
      SegmentMap<uint8_t>::from_nested(in, [](const auto& pv) {
        return SegmentMap<uint8_t>::Segment{pv.first.first(), pv.first.end(),
                                            pv.second};
      });

  std::stable_sort(in.begin(), in.end(), [](const auto& a, const auto& b) {
    return a.first.length() < b.first.length();
  });
  SegmentMap<uint8_t> painted;
  for (const auto& [p, v] : in) painted.assign(p, v);
  painted.finalize();

  ASSERT_TRUE(std::equal(swept.segments().begin(), swept.segments().end(),
                         painted.segments().begin(),
                         painted.segments().end()))
      << swept.segment_count() << " swept vs " << painted.segment_count()
      << " painted segments over " << in.size() << " prefixes";
  EXPECT_TRUE(swept.has_fast_index());
}

TEST(SegmentMapSweep, LongestMatchSweepEqualsAssignAndFinalize) {
  expect_sweep_matches_paint({});  // empty input, empty map
  expect_sweep_matches_paint({{Prefix(), 1}});
  expect_sweep_matches_paint(
      {{Prefix::containing(net::Ipv4(0xffffffff), 32), 2}});

  // A 33-deep chain /0 ... /32 around one address, then the same chain with
  // equal values everywhere (one segment must remain).
  std::vector<std::pair<Prefix, uint8_t>> chain, flat;
  for (int len = 0; len <= 32; ++len) {
    const Prefix p = Prefix::containing(net::Ipv4(0x8badf00d), len);
    chain.push_back({p, static_cast<uint8_t>(len % 3)});
    flat.push_back({p, 1});
  }
  expect_sweep_matches_paint(chain);
  expect_sweep_matches_paint(flat);

  // Equal-length siblings under a parent, siblings sharing the parent's
  // value (they must coalesce with it and each other) or not.
  const Prefix parent = Prefix::parse("10.0.0.0/8");
  expect_sweep_matches_paint({{parent, 0},
                              {parent.child(0), 0},
                              {parent.child(1), 0},
                              {parent.child(1).child(0), 1}});
  expect_sweep_matches_paint({{parent.child(0), 2}, {parent.child(1), 2}});

  // Seeded random sets: every length from /0 to /32, clustered so nesting
  // is deep and siblings are common, with three values so adjacent equal
  // runs coalesce often.
  std::mt19937_64 rng(0x5EEB);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::pair<Prefix, uint8_t>> in;
    const uint32_t base = static_cast<uint32_t>(rng());
    const size_t n = 1 + rng() % 400;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t addr = base ^ static_cast<uint32_t>(rng() % (1u << 20));
      const int len = static_cast<int>(rng() % 33);
      in.push_back({Prefix::containing(net::Ipv4(addr), len),
                    static_cast<uint8_t>(rng() % 3)});
    }
    if (round % 10 == 0) in.push_back({Prefix(), 0});
    expect_sweep_matches_paint(std::move(in));
  }
}

// ------------------------------------------------------------- snapshot --

svc::Snapshot make_random_snapshot(std::mt19937_64& rng) {
  IntervalSet routed, as0, irr, alloc;
  auto fill = [&](IntervalSet& s, int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t b = rng() % (uint64_t{1} << 32);
      s.insert(b, std::min(b + 1 + rng() % 500'000, uint64_t{1} << 32));
    }
  };
  fill(routed, 3000);
  fill(as0, 300);
  fill(irr, 800);
  fill(alloc, 500);
  SegmentMap<svc::Snapshot::DropInfo> drop;
  SegmentMap<uint8_t> rov, rir;
  for (int i = 0; i < 400; ++i) {
    const uint64_t b = rng() % (uint64_t{1} << 32);
    const uint64_t e = std::min(b + 1 + rng() % 100'000, uint64_t{1} << 32);
    drop.assign(b, e,
                svc::Snapshot::DropInfo{static_cast<uint8_t>(1 + rng() % 7),
                                        static_cast<uint8_t>(rng() % 2)});
    rov.assign(e % (uint64_t{1} << 32), std::min(e + 50'000, uint64_t{1} << 32),
               static_cast<uint8_t>(rng() % 3));
    rir.assign(b / 2, std::min(b / 2 + 200'000, uint64_t{1} << 32),
               static_cast<uint8_t>(rng() % 5));
  }
  drop.finalize();
  rov.finalize();
  rir.finalize();
  return svc::Snapshot(1, net::Date::from_ymd(2022, 1, 15), 0,
                       std::move(routed), std::move(as0), std::move(irr),
                       std::move(alloc), std::move(drop), std::move(rov),
                       std::move(rir));
}

TEST(SnapshotDifferential, BatchAndScalarMatchReference) {
  std::mt19937_64 rng(0x54AB);
  const svc::Snapshot snap = make_random_snapshot(rng);
  std::vector<Prefix> probes;
  std::vector<uint8_t> fields;
  for (int i = 0; i < 4096; ++i) {
    const auto addr = static_cast<uint32_t>(rng());
    probes.push_back(
        Prefix::containing(net::Ipv4(addr), 8 + static_cast<int>(rng() % 25)));
    // Mixed field masks inside one batch, including zero.
    fields.push_back(static_cast<uint8_t>(rng() % (svc::kAllFields + 1)));
  }
  std::vector<svc::Answer> batched(probes.size());
  snap.lookup_batch(probes, fields, batched);
  for (size_t i = 0; i < probes.size(); ++i) {
    const svc::Answer ref = snap.lookup_reference(probes[i], fields[i]);
    const svc::Answer fast = snap.lookup(probes[i], fields[i]);
    ASSERT_EQ(fast, ref) << probes[i].to_string();
    ASSERT_EQ(batched[i], ref) << probes[i].to_string();
  }
}

// The TSan gate: the index is immutable after build; concurrent batched
// and scalar readers on one shared snapshot must be race-free.
TEST(SnapshotDifferential, ConcurrentReadersAreRaceFree) {
  std::mt19937_64 rng(0xC0FFEE);
  const svc::Snapshot snap = make_random_snapshot(rng);
  std::vector<Prefix> probes;
  std::vector<uint8_t> fields(512, svc::kAllFields);
  for (int i = 0; i < 512; ++i) {
    probes.push_back(Prefix::containing(net::Ipv4(static_cast<uint32_t>(rng())),
                                        24));
  }
  std::vector<svc::Answer> expected(probes.size());
  snap.lookup_batch(probes, fields, expected);
  std::vector<std::thread> readers;
  std::atomic<bool> diverged{false};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        std::vector<svc::Answer> got(probes.size());
        snap.lookup_batch(probes, fields, got);
        if (got != expected) diverged = true;
        for (size_t i = 0; i < probes.size(); ++i) {
          if (!(snap.lookup(probes[i], svc::kAllFields) == expected[i])) {
            diverged = true;
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_FALSE(diverged.load());
}

}  // namespace
}  // namespace droplens
