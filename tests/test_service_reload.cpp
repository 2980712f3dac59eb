// Zero-downtime reload: client threads hammer the server while the main
// thread swaps snapshots. Every response must be self-consistent with
// exactly one snapshot version — the version field and every answer in a
// frame agree on which snapshot served it. This file is the TSan gate for
// the service (label `service`):
//   cmake -B build-tsan -S . -DDROPLENS_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L service
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "sim/generator.hpp"
#include "svc/client.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"

namespace droplens {
namespace {

class ServiceReloadTest : public ::testing::Test {
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

sim::ScenarioConfig* ServiceReloadTest::config_ = nullptr;
sim::World* ServiceReloadTest::world_ = nullptr;
core::SnapshotCache* ServiceReloadTest::cache_ = nullptr;

TEST_F(ServiceReloadTest, ResponsesAreSelfConsistentWhileSnapshotsSwap) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  // Two snapshots for different dates: their answers differ (with the
  // second as the head, the first date's queries answer kUnavailable), so a
  // response mixing the two would be caught byte-for-byte.
  net::Date d1 = config_->window_begin + 30;
  net::Date d2 = config_->window_begin + 90;
  auto snap1 = svc::compile_snapshot(s, index, d1, 1);
  auto snap2 = svc::compile_snapshot(s, index, d2, 2);

  std::vector<svc::Query> batch;
  for (const core::DropEntry& e : index.entries()) {
    batch.push_back(svc::Query{d1, e.prefix, svc::kAllFields});
    if (batch.size() >= 64) break;
  }
  ASSERT_FALSE(batch.empty());
  const std::string request = svc::encode_query_request(batch);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap1);
  // The two legal responses, recorded before the storm.
  const std::string expect1 = server.serve(request);
  server.publish(snap2);
  const std::string expect2 = server.serve(request);
  ASSERT_NE(expect1, expect2);
  server.publish(snap1);

  constexpr int kClientThreads = 8;
  constexpr int kRequestsPerThread = 400;
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> seen1{0}, seen2{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread && !failed.load(); ++i) {
        std::string response = server.serve(request);
        if (response == expect1) {
          seen1.fetch_add(1);
        } else if (response == expect2) {
          seen2.fetch_add(1);
        } else {
          failed.store(true);
        }
      }
    });
  }
  // Reload continuously while the clients run.
  for (int swap = 0; swap < 600; ++swap) {
    server.publish(swap % 2 ? snap1 : snap2);
  }
  for (std::thread& c : clients) c.join();

  EXPECT_FALSE(failed.load()) << "a response mixed two snapshot versions";
  EXPECT_EQ(seen1.load() + seen2.load(),
            uint64_t{kClientThreads} * kRequestsPerThread);
  EXPECT_GT(server.stats().reloads, 0u);
}

TEST_F(ServiceReloadTest, ReloadOverTcpKeepsClientsConnected) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 30;
  auto snap1 = svc::compile_snapshot(s, index, d, 1);
  auto snap2 = svc::compile_snapshot(s, index, d, 2);  // same date, new version

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap1);
  svc::EpollServer tcp(server, svc::TransportOptions{});
  svc::TcpClientConnection conn("127.0.0.1", tcp.port(), svc::frame_size);
  svc::Client client(conn);

  net::Prefix probe = index.entries().front().prefix;
  EXPECT_EQ(client.query({svc::Query{d, probe, svc::kAllFields}})
                .snapshot_version,
            1u);
  server.publish(snap2);
  // Same connection, no reconnect: the next frame sees the new snapshot.
  EXPECT_EQ(client.query({svc::Query{d, probe, svc::kAllFields}})
                .snapshot_version,
            2u);
  EXPECT_EQ(server.stats().reloads, 1u);
}

TEST_F(ServiceReloadTest, IdenticalSnapshotsServeByteIdenticalAnswersDuringReload) {
  // The bench's reload mode republishes equal-content snapshots; assert the
  // byte-identical guarantee it relies on.
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 30;
  auto snap_a = svc::compile_snapshot(s, index, d, 7);
  auto snap_b = svc::compile_snapshot(s, index, d, 7);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap_a);
  std::vector<svc::Query> batch;
  for (const core::DropEntry& e : index.entries()) {
    batch.push_back(svc::Query{d, e.prefix, svc::kAllFields});
  }
  const std::string request = svc::encode_query_request(batch);
  const std::string expected = server.serve(request);

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 300 && !failed.load(); ++i) {
        if (server.serve(request) != expected) failed.store(true);
      }
    });
  }
  for (int swap = 0; swap < 300; ++swap) {
    server.publish(swap % 2 ? snap_a : snap_b);
  }
  for (std::thread& c : clients) c.join();
  EXPECT_FALSE(failed.load());
}

TEST_F(ServiceReloadTest, MultiDateRoutingSurvivesRescanAndEviction) {
  // Store mode under fire: client threads send frames mixing six dates
  // while the main thread hammers rescan() (the SIGHUP hook) against a
  // store whose LRU holds only three days, so every request races
  // eviction, re-materialization, and residency drops. Every answer must
  // stay byte-identical to a per-date compile — only the snapshot version
  // may move (re-materialized days mint fresh versions).
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);

  char dirbuf[] = "/tmp/droplens_reload_XXXXXX";
  ASSERT_NE(mkdtemp(dirbuf), nullptr);
  const std::string dir = dirbuf;

  svc::SnapshotStore::Config cfg;
  cfg.dir = dir;
  cfg.max_resident = 3;  // six dates through three slots: constant eviction
  svc::SnapshotStore store(cfg, &s, &index);
  svc::Server server(store);

  std::vector<net::Date> dates;
  for (int i = 0; i < 6; ++i) dates.push_back(config_->window_begin + 28 + i);

  // The ground truth: per-date compiles, independent of the store.
  std::vector<std::shared_ptr<const svc::Snapshot>> compiled;
  for (net::Date d : dates) {
    compiled.push_back(svc::compile_snapshot(s, index, d, 1));
  }

  // One frame interleaving all six dates.
  std::vector<svc::Query> batch;
  size_t probe_count = 0;
  for (const core::DropEntry& e : index.entries()) {
    for (net::Date d : dates) {
      batch.push_back(svc::Query{d, e.prefix, svc::kAllFields});
    }
    if (++probe_count >= 16) break;
  }
  const std::string request = svc::encode_query_request(batch);

  // Expected answers from the ground-truth snapshots, version ignored.
  svc::QueryResponse expected;
  expected.snapshot_version = 0;
  expected.date = batch.front().date;
  expected.degraded = compiled.front()->degraded();
  for (const svc::Query& q : batch) {
    size_t di = static_cast<size_t>(q.date.days() - dates.front().days());
    expected.answers.push_back(compiled[di]->lookup(q.prefix, q.fields));
  }
  const std::string expected_bytes = svc::encode_query_response(expected);

  constexpr int kClientThreads = 8;
  constexpr int kRequestsPerThread = 200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread && !failed.load(); ++i) {
        svc::QueryResponse got =
            svc::decode_query_response(svc::frame_payload(server.serve(request)));
        got.snapshot_version = 0;  // the only field allowed to move
        if (svc::encode_query_response(got) != expected_bytes) {
          failed.store(true);
        }
      }
    });
  }
  for (int swap = 0; swap < 400; ++swap) store.rescan();
  for (std::thread& c : clients) c.join();

  EXPECT_FALSE(failed.load())
      << "a store-mode answer diverged from its per-date compile";
  EXPECT_GT(store.stats().evictions, 0u) << "the LRU never churned";
  EXPECT_GT(store.stats().loads, 0u)
      << "rescan/eviction never forced a re-load from disk";
  EXPECT_LE(store.resident_count(), 3u + dates.size())
      << "residency unbounded";

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace droplens
