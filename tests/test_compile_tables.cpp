// SnapshotCache lifetime tables against the substrates' trie functions
// (label `window`, so both sanitizer jobs run it).
//
// The cache answers every per-day set and the per-route RFC 6811 statuses
// from flat lifetime tables; compile_snapshot paints ROV with a
// longest-match sweep. The trie functions and the trie compile
// (trie_oracle.hpp) are the oracles:
//   1. every set the cache computes equals its trie function on 30+
//      small-world days and 5 paper-scale days, and route_validity() equals
//      the validate_route fold over origins_on;
//   2. compile_snapshot serializes to the same bytes as the trie compile,
//      also when a DataQuality ledger drops BGP, ROA, delegation, IRR and
//      DROP-feed days, each alone and all five on one day;
//   3. pool threads racing the first query of a fresh cache all see the same
//      tables (the lazy-build race, a TSan gate);
//   4. the cache keeps no day: a second compile of a day computes every set
//      again and gives the same bytes;
//   5. a cached compile runs no pool task.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "trie_oracle.hpp"
#include "util/thread_pool.hpp"

namespace droplens {
namespace {

using Filter = rpki::RoaArchive::Filter;

core::Study study_of(const sim::World& w) {
  return core::Study{w.registry,           w.fleet, w.irr, w.roas, w.drop,
                     w.sbl, w.config.window_begin, w.config.window_end};
}

void expect_route_validity_eq(
    const std::vector<core::SnapshotCache::RouteValidity>& got,
    const std::vector<core::SnapshotCache::RouteValidity>& want,
    net::Date d) {
  ASSERT_EQ(got.size(), want.size()) << d.to_string();
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].prefix, want[i].prefix) << d.to_string();
    ASSERT_EQ(got[i].validity, want[i].validity)
        << got[i].prefix.to_string() << " on " << d.to_string();
  }
}

/// The sets computed so far: every series of the cache's counter family,
/// summed the way the benchmark ledger reads it.
uint64_t sets_computed(const obs::Registry& reg) {
  uint64_t total = 0;
  for (const obs::Registry::FamilySnapshot& f : reg.snapshot()) {
    if (f.name != "droplens_cache_misses_total") continue;
    for (const obs::Registry::SeriesSnapshot& series : f.series) {
      total += series.counter;
    }
  }
  return total;
}

/// Every set the cache computes on `d` against its trie function, on a
/// cache shared across days (the way the engine uses it).
void expect_tables_match_tries(const core::SnapshotCache& cache,
                               const sim::World& w, net::Date d) {
  SCOPED_TRACE(d.to_string());
  EXPECT_EQ(*cache.routed_space(d), w.fleet.routed_space(d));
  EXPECT_EQ(*cache.allocated_space(d), w.registry.allocated_space(d));
  EXPECT_EQ(*cache.irr_space(d), oracle::irr_space(w.irr, d));
  EXPECT_EQ(*cache.drop_space(d), oracle::drop_space(w.drop, d));
  for (rir::Rir r : rir::kAllRirs) {
    EXPECT_EQ(*cache.free_pool(r, d), w.registry.free_pool(r, d))
        << rir::display_name(r);
  }
  for (rpki::TalSet tals : {rpki::TalSet::defaults(), rpki::TalSet::all()}) {
    for (Filter f : {Filter::kAll, Filter::kAs0Only, Filter::kNonAs0Only}) {
      EXPECT_EQ(*cache.signed_space(d, tals, f),
                w.roas.signed_space(d, tals, f))
          << "filter " << static_cast<int>(f);
    }
  }
  for (rpki::TalSet tals :
       {rpki::TalSet::defaults(), rpki::TalSet::all(), rpki::TalSet()}) {
    expect_route_validity_eq(cache.route_validity(d, tals),
                             oracle::route_validity(w.fleet, w.roas, d, tals),
                             d);
  }
}

class CompileTablesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = sim::generate(sim::ScenarioConfig::small()).release();
  }
  static void TearDownTestSuite() { delete world_; }

  /// 32 days spread over the window, plus days before it (history only)
  /// and after it.
  static std::vector<net::Date> days() {
    const net::Date begin = world_->config.window_begin;
    const int32_t span = world_->config.window_end - begin;
    std::vector<net::Date> out{begin - 400, begin - 1};
    for (int32_t i = 0; i < 32; ++i) out.push_back(begin + span * i / 31);
    out.push_back(world_->config.window_end + 30);
    return out;
  }

  static sim::World* world_;
};

sim::World* CompileTablesTest::world_ = nullptr;

TEST_F(CompileTablesTest, CachedSetsEqualTrieFunctionsOnSmallWorldDays) {
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  for (net::Date d : days()) expect_tables_match_tries(cache, *world_, d);
}

TEST_F(CompileTablesTest, CompileWithCacheIsByteIdenticalToTriePath) {
  const core::Study plain = study_of(*world_);
  const core::DropIndex index = core::DropIndex::build(plain);

  // A ledger that drops each feed's days alone, and all five together.
  const std::vector<net::Date> dates = days();
  core::DataQuality quality;
  quality.mark_day_unavailable(core::Feed::kBgpUpdates, dates[4]);
  quality.mark_day_unavailable(core::Feed::kRoas, dates[5]);
  quality.mark_day_unavailable(core::Feed::kDelegations, dates[6]);
  for (core::Feed f : core::kAllFeeds) {
    quality.mark_day_unavailable(f, dates[7]);
  }
  quality.mark_day_unavailable(core::Feed::kIrr, dates[8]);
  quality.mark_day_unavailable(core::Feed::kDropFeed, dates[9]);

  const core::DataQuality* ledgers[] = {nullptr, &quality};
  for (const core::DataQuality* ledger : ledgers) {
    util::ThreadPool pool(4);
    core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                              world_->drop, &world_->irr);
    core::Study cached = plain;
    cached.quality = ledger;
    cached.pool = &pool;
    cached.snapshots = &cache;
    for (net::Date d : dates) {
      const auto want = oracle::compile_snapshot(cached, index, d, 7);
      const auto got = svc::compile_snapshot(cached, index, d, 7);
      ASSERT_EQ(svc::serialize_snapshot(*got), svc::serialize_snapshot(*want))
          << d.to_string() << (ledger ? " with the ledger" : "");
    }
  }
  // The ledger's days really degraded, each by exactly its feeds.
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  core::Study s = plain;
  s.quality = &quality;
  s.snapshots = &cache;
  auto degraded = [&](net::Date d) {
    return svc::compile_snapshot(s, index, d, 1)->degraded();
  };
  auto bit = [](core::Feed f) { return 1 << static_cast<int>(f); };
  EXPECT_NE(degraded(dates[7]), 0);
  EXPECT_EQ(degraded(dates[7]), (1 << core::kFeedCount) - 1);
  EXPECT_EQ(degraded(dates[8]), bit(core::Feed::kIrr));
  EXPECT_EQ(degraded(dates[9]), bit(core::Feed::kDropFeed));
}

TEST_F(CompileTablesTest, FirstQueriesRacingOnAFreshCacheAgree) {
  const net::Date d = world_->config.window_begin + 90;
  const net::IntervalSet routed = world_->fleet.routed_space(d);
  const net::IntervalSet allocated = world_->registry.allocated_space(d);
  const net::IntervalSet signed_all = world_->roas.signed_space(d);
  const auto validity =
      oracle::route_validity(world_->fleet, world_->roas, d,
                             rpki::TalSet::defaults());
  util::ThreadPool pool(4);
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  for (int round = 0; round < 8; ++round) {
    core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                              world_->drop, &world_->irr);
    const uint64_t before = sets_computed(reg);
    std::atomic<int> waiting{4};
    std::vector<int> ok(4, 0);
    pool.parallel_for(4, [&](size_t i) {
      // Line the four threads up so they hit the lazy build together.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
      }
      switch (i) {
        case 0:
          ok[i] = *cache.routed_space(d) == routed;
          break;
        case 1:
          ok[i] = *cache.allocated_space(d) == allocated;
          break;
        case 2:
          ok[i] = *cache.signed_space(d, rpki::TalSet::defaults()) ==
                  signed_all;
          break;
        default: {
          const auto got = cache.route_validity(d, rpki::TalSet::defaults());
          ok[i] = got.size() == validity.size();
          for (size_t k = 0; ok[i] && k < got.size(); ++k) {
            ok[i] = got[k].prefix == validity[k].prefix &&
                    got[k].validity == validity[k].validity;
          }
        }
      }
    });
    EXPECT_EQ(ok, std::vector<int>(4, 1)) << "round " << round;
    // Three computed sets; the table build and route_validity are not.
    EXPECT_EQ(sets_computed(reg) - before, 3u) << "round " << round;
  }
}

// The cache keeps no day: compiling the same day a second time computes
// every set again, as many as the first compile did, and gives the same
// bytes.
TEST_F(CompileTablesTest, RecompilingADayComputesEverySetAgain) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  core::Study s = study_of(*world_);
  const core::DropIndex index = core::DropIndex::build(s);
  s.snapshots = &cache;
  const net::Date d = world_->config.window_begin + 90;

  // The sets one compile computes, and its bytes.
  auto compile = [&] {
    const uint64_t before = sets_computed(reg);
    std::string bytes =
        svc::serialize_snapshot(*svc::compile_snapshot(s, index, d, 1));
    return std::make_pair(sets_computed(reg) - before, std::move(bytes));
  };
  const auto [first_sets, first] = compile();
  const auto [second_sets, second] = compile();
  EXPECT_EQ(first_sets, 4u);  // routed, allocated, AS0-signed and IRR space
  EXPECT_EQ(second_sets, first_sets);
  EXPECT_EQ(second, first);
}

TEST_F(CompileTablesTest, CachedCompileRunsNoPoolTask) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  util::ThreadPool pool(4);
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  core::Study s = study_of(*world_);
  const core::DropIndex index = core::DropIndex::build(s);
  s.pool = &pool;
  s.snapshots = &cache;
  const obs::Counter submitted =
      reg.counter("droplens_pool_tasks_submitted_total");
  const uint64_t before = submitted.value();
  for (net::Date d : days()) svc::compile_snapshot(s, index, d, 1);
  EXPECT_EQ(submitted.value(), before);
}

// Paper scale: the same differential on 5 days of the calibrated world, one
// test so the world is generated once per process.
TEST(CompileTablesPaperScale, CachedSetsAndCompilesMatchTheTriesOnFiveDays) {
  const std::unique_ptr<sim::World> world =
      sim::generate(sim::ScenarioConfig{});
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  const net::Date begin = world->config.window_begin;
  const int32_t span = world->config.window_end - begin;
  std::vector<net::Date> dates;
  for (int32_t i = 0; i < 5; ++i) dates.push_back(begin + span * i / 4);
  for (net::Date d : dates) expect_tables_match_tries(cache, *world, d);

  util::ThreadPool pool(4);
  core::Study cached = study_of(*world);
  const core::DropIndex index = core::DropIndex::build(cached);
  cached.pool = &pool;
  cached.snapshots = &cache;
  for (net::Date d : {dates.front(), dates.back()}) {
    EXPECT_EQ(
        svc::serialize_snapshot(*svc::compile_snapshot(cached, index, d, 1)),
        svc::serialize_snapshot(*oracle::compile_snapshot(cached, index, d, 1)))
        << d.to_string();
  }
}

}  // namespace
}  // namespace droplens
