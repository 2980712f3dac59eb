// Concurrency layer: ThreadPool semantics, SnapshotCache lookups, the
// engine determinism guard (1-thread vs N-thread reports must be
// byte-identical), and the cache contract: a Study without a SnapshotCache,
// or a cache without an IRR database, is an InvariantError. Labelled
// `engine`; this file is the TSan gate for the parallel engine, and both CI
// sanitizer jobs run it:
//   cmake -B build-tsan -S . -DDROPLENS_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L engine
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/drop_index.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "core/roa_status.hpp"
#include "core/snapshot_cache.hpp"
#include "sim/generator.hpp"
#include "svc/snapshot.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens {
namespace {

TEST(EngineThreadPool, SubmitReturnsResults) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  auto a = pool.submit([] { return 7; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), "ok");
}

TEST(EngineThreadPool, SubmitPropagatesExceptions) {
  util::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(EngineThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(EngineThreadPool, ParallelForPropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](size_t i) {
                          ran.fetch_add(1);
                          if (i == 17) throw std::runtime_error("bad index");
                        }),
      std::runtime_error);
  // All chunks settle before the rethrow; the pool remains usable.
  EXPECT_EQ(pool.submit([] { return 2; }).get(), 2);
  EXPECT_GE(ran.load(), 1);
}

TEST(EngineThreadPool, SequentialModeRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.submit([&] { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
  std::vector<size_t> order;
  pool.parallel_for(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(EngineThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(done.load(), 200);
}

TEST(EngineThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  util::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](size_t) {
    pool.parallel_for(8, [&](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 64);
}

TEST(EngineThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("DROPLENS_THREADS", "3", 1), 0);
  EXPECT_EQ(util::ThreadPool::default_thread_count(), 3u);
  ASSERT_EQ(setenv("DROPLENS_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(util::ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("DROPLENS_THREADS"), 0);
  EXPECT_GE(util::ThreadPool::default_thread_count(), 1u);
}

class EngineWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig(sim::ScenarioConfig::small());
    world_ = sim::generate(*config_).release();
  }
  static void TearDownTestSuite() {
    delete world_;
    delete config_;
  }
  core::Study study() const {
    return core::Study{world_->registry,    world_->fleet, world_->irr,
                       world_->roas,        world_->drop,  world_->sbl,
                       config_->window_begin, config_->window_end};
  }
  static sim::ScenarioConfig* config_;
  static sim::World* world_;
};

sim::ScenarioConfig* EngineWorldTest::config_ = nullptr;
sim::World* EngineWorldTest::world_ = nullptr;

// Each call computes its set again from the lifetime tables: the same day
// gives an equal set, and each variant equals its substrate's trie function.
TEST_F(EngineWorldTest, SnapshotCacheRecomputesEqualSetsPerDay) {
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  net::Date d = config_->window_begin + 30;
  auto first = cache.routed_space(d);
  auto second = cache.routed_space(d);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(*first, world_->fleet.routed_space(d));

  auto signed_all = cache.signed_space(d, rpki::TalSet::defaults());
  auto signed_nonas0 = cache.signed_space(
      d, rpki::TalSet::defaults(), rpki::RoaArchive::Filter::kNonAs0Only);
  EXPECT_EQ(*signed_all, world_->roas.signed_space(d));
  EXPECT_EQ(*signed_nonas0,
            world_->roas.signed_space(d, rpki::TalSet::defaults(),
                                      rpki::RoaArchive::Filter::kNonAs0Only));
}

TEST_F(EngineWorldTest, SnapshotCacheCoversAllSubstrates) {
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  net::Date d = config_->window_end;
  EXPECT_EQ(*cache.allocated_space(d), world_->registry.allocated_space(d));
  EXPECT_EQ(*cache.free_pool(rir::Rir::kLacnic, d),
            world_->registry.free_pool(rir::Rir::kLacnic, d));
  net::IntervalSet drop_active;
  for (const net::Prefix& p : world_->drop.snapshot(d)) drop_active.insert(p);
  EXPECT_EQ(*cache.drop_space(d), drop_active);
}

TEST_F(EngineWorldTest, SnapshotCacheIsSafeUnderConcurrentLookups) {
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  util::ThreadPool pool(4);
  std::vector<uint64_t> sizes(64);
  pool.parallel_for(sizes.size(), [&](size_t i) {
    net::Date d = config_->window_begin + static_cast<int32_t>(30 * (i % 8));
    sizes[i] = cache.routed_space(d)->size() +
               cache.allocated_space(d)->size() +
               cache.signed_space(d, rpki::TalSet::defaults())->size();
  });
  for (size_t i = 8; i < sizes.size(); ++i) {
    ASSERT_EQ(sizes[i], sizes[i % 8]);
  }
}

// Every per-day set comes from the cache: a Study that reaches the engine,
// a compile or an analysis without one fails loudly instead of computing
// from the substrates' tries.
TEST_F(EngineWorldTest, StudyWithoutACacheThrowsInvariantError) {
  const core::Study s = study();
  ASSERT_EQ(s.snapshots, nullptr);
  const net::Date d = config_->window_begin + 30;
  const core::DropIndex index = core::DropIndex::build(s);
  EXPECT_THROW(core::engine::routed_space(s, d), InvariantError);
  EXPECT_THROW(svc::compile_snapshot(s, index, d, 1), InvariantError);
  EXPECT_THROW(core::analyze_roa_status(s), InvariantError);
}

TEST_F(EngineWorldTest, SnapshotCacheRefusesANullIrr) {
  EXPECT_THROW(core::SnapshotCache(world_->registry, world_->fleet,
                                   world_->roas, world_->drop, nullptr),
               InvariantError);
}

// The determinism guard: the full report (every analysis, CSV series
// included) must be byte-identical across thread counts.
TEST_F(EngineWorldTest, ReportIsByteIdenticalAcrossThreadCounts) {
  core::ReportOptions options;
  options.include_series = true;

  options.threads = 1;
  std::ostringstream sequential;
  core::Study s1 = study();
  int sections_seq = core::write_report(sequential, s1, options);

  options.threads = 4;
  std::ostringstream parallel;
  core::Study s4 = study();
  int sections_par = core::write_report(parallel, s4, options);

  EXPECT_EQ(sections_seq, sections_par);
  EXPECT_EQ(sequential.str(), parallel.str());

  // And a second parallel run reproduces itself.
  std::ostringstream again;
  core::Study s4b = study();
  core::write_report(again, s4b, options);
  EXPECT_EQ(parallel.str(), again.str());
}

}  // namespace
}  // namespace droplens
