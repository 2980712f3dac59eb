// Whole-window time-travel serving (label `window`).
//
// The contracts this file gates:
//   1. Contention — a compile-on-miss for one date must NOT block
//      concurrent get()s for other dates: the store's per-date latches are
//      the regression surface, and this binary is meant to run under BOTH
//      sanitizer presets (see tests/CMakeLists.txt):
//        cmake -B build-tsan -S . -DDROPLENS_SANITIZE=thread
//        cmake --build build-tsan -j && ctest --test-dir build-tsan -L window
//        cmake -B build-asan -S . -DDROPLENS_SANITIZE=address
//        cmake --build build-asan -j && ctest --test-dir build-asan -L window
//   2. Fidelity — a Server over a store answers 30+ distinct dates
//      (degraded days included) identically to per-date compiles, the range
//      op matches naive per-day lookups run for run, and a live head alone
//      serves its own day of a range.
//   3. Rescan — incremental: resident days with unchanged files survive a
//      rescan; changed, deleted, and file-less days are dropped.
//      Residency — only a client's get() is a use: an old-chain resolve
//      evicts its own bases, never the days clients are reading.
//   4. HTTP — the metrics front consumes full requests (head + declared
//      body), so keep-alive and pipelined peers stay in sync.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "net/date.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "svc/client.hpp"
#include "svc/admin_http.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"
#include "util/error.hpp"

namespace droplens {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/droplens_window_XXXXXX";
    const char* p = mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    dir_ = p ? p : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

class WindowTest : public ::testing::Test {
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
  net::Date date(int offset) const { return config_->window_begin + offset; }

  static sim::ScenarioConfig* config_;
  static sim::World* world_;
  static core::SnapshotCache* cache_;
};

sim::ScenarioConfig* WindowTest::config_ = nullptr;
sim::World* WindowTest::world_ = nullptr;
core::SnapshotCache* WindowTest::cache_ = nullptr;

// ---------------------------------------------------------------------------
// 1. Contention: the per-date latch regression test.

TEST_F(WindowTest, CompileMissOnOneDateDoesNotBlockGetsForOtherDates) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  svc::SnapshotStore store({}, &s, &index);

  const net::Date hot = date(30);
  const net::Date cold = date(31);
  ASSERT_NE(store.get(hot), nullptr);  // resident before the hook arms

  std::atomic<bool> in_hook{false};
  std::atomic<bool> release{false};
  store.set_materialize_hook_for_tests([&](net::Date d) {
    if (d == cold) {
      in_hook.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  std::thread miss([&] { EXPECT_NE(store.get(cold), nullptr); });
  while (!in_hook.load()) std::this_thread::yield();

  // The cold date is now parked inside its materialization, holding its
  // own latch. A hit on another date must come straight back — under the
  // old store-wide mutex this get() deadlocked until the release below.
  const size_t hits_before = store.stats().resident_hits;
  EXPECT_NE(store.get(hot), nullptr);
  EXPECT_EQ(store.stats().resident_hits, hits_before + 1);
  EXPECT_FALSE(release.load())
      << "the hot-date hit waited out the cold-date materialization";

  // A second miss-er for the SAME cold date must dedup onto the first
  // materialization rather than compiling again.
  std::thread same([&] { EXPECT_NE(store.get(cold), nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  release.store(true);
  miss.join();
  same.join();
  EXPECT_EQ(store.stats().compiles, 2u) << "cold compiled more than once";
}

// ---------------------------------------------------------------------------
// 2. Fidelity: whole-window serving and the range op.

TEST_F(WindowTest, ServerAnswersThirtyPlusDatesIdenticalToPerDateCompiles) {
  core::Study s = study();
  core::DataQuality quality;
  s.quality = &quality;
  // Two degraded-feed days inside the probe set.
  quality.mark_day_unavailable(core::Feed::kDropFeed, date(13));
  quality.mark_day_unavailable(core::Feed::kRoas, date(25));
  quality.mark_day_unavailable(core::Feed::kIrr, date(25));
  core::DropIndex index = core::DropIndex::build(s);

  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  cfg.max_resident = 8;  // 32 dates through 8 slots: eviction on the path
  svc::SnapshotStore store(cfg, &s, &index);
  svc::Server server(store);
  svc::LoopbackConnection loop(server);
  svc::Client client(loop);

  std::vector<net::Prefix> probes;
  for (const core::DropEntry& e : index.entries()) {
    probes.push_back(e.prefix);
    if (probes.size() >= 16) break;
  }
  ASSERT_FALSE(probes.empty());

  int degraded_days = 0;
  for (int i = 0; i < 32; ++i) {
    net::Date d = date(1 + i);
    auto truth = svc::compile_snapshot(s, index, d, 1);
    std::vector<svc::Query> batch;
    for (const net::Prefix& p : probes) {
      batch.push_back(svc::Query{d, p, svc::kAllFields});
    }
    svc::QueryResponse resp = client.query(batch);
    EXPECT_EQ(resp.date, d);
    EXPECT_EQ(resp.degraded, truth->degraded()) << d.to_string();
    if (truth->degraded()) ++degraded_days;
    ASSERT_EQ(resp.answers.size(), batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      EXPECT_EQ(resp.answers[q],
                truth->lookup(batch[q].prefix, batch[q].fields))
          << d.to_string() << " " << batch[q].prefix.to_string();
    }
  }
  EXPECT_GE(degraded_days, 2) << "the degraded days fell outside the sweep";
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST_F(WindowTest, OneFrameMayMixDatesAndUnservableDatesAnswerUnavailable) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  svc::SnapshotStore store({}, &s, &index);
  svc::Server server(store);

  net::Prefix probe = index.entries().front().prefix;
  const net::Date in1 = date(40);
  const net::Date in2 = date(41);
  const net::Date outside = net::Date(config_->window_begin.days() - 10);
  std::vector<svc::Query> batch = {
      svc::Query{in1, probe, svc::kAllFields},
      svc::Query{outside, probe, svc::kAllFields},
      svc::Query{in2, probe, svc::kAllFields},
  };
  svc::QueryResponse resp = svc::decode_query_response(svc::frame_payload(
      server.serve(svc::encode_query_request(batch))));
  ASSERT_EQ(resp.answers.size(), 3u);
  EXPECT_EQ(resp.date, in1) << "header metadata follows the first query";
  EXPECT_EQ(resp.answers[0].status,
            static_cast<uint8_t>(svc::QueryStatus::kOk));
  EXPECT_EQ(resp.answers[1].status,
            static_cast<uint8_t>(svc::QueryStatus::kUnavailable));
  EXPECT_EQ(resp.answers[2].status,
            static_cast<uint8_t>(svc::QueryStatus::kOk));
  auto truth1 = svc::compile_snapshot(s, index, in1, 1);
  auto truth2 = svc::compile_snapshot(s, index, in2, 1);
  EXPECT_EQ(resp.answers[0], truth1->lookup(probe, svc::kAllFields));
  EXPECT_EQ(resp.answers[2], truth2->lookup(probe, svc::kAllFields));
}

TEST_F(WindowTest, RangeQueryMatchesNaivePerDayLookups) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  svc::SnapshotStore store({}, &s, &index);
  svc::Server server(store);
  svc::LoopbackConnection loop(server);
  svc::Client client(loop);

  net::Prefix probe = index.entries().front().prefix;
  const net::Date d0 = date(20);
  const net::Date d1 = date(20 + 39);  // 40 days
  svc::RangeResponse rr = client.range(d0, d1, probe);
  EXPECT_EQ(rr.prefix, probe);

  // Expand the runs and compare each day to an independent lookup.
  std::map<int32_t, const svc::RangeRun*> per_day;
  for (const svc::RangeRun& run : rr.runs) {
    for (uint32_t k = 0; k < run.days; ++k) {
      per_day[run.start.days() + static_cast<int32_t>(k)] = &run;
    }
  }
  ASSERT_EQ(per_day.size(), 40u) << "runs must cover the window exactly";
  for (int32_t dd = d0.days(); dd <= d1.days(); ++dd) {
    net::Date d{dd};
    const svc::RangeRun* run = per_day.at(dd);
    auto snap = store.get(d);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(run->answer, snap->lookup(probe, svc::kAllFields))
        << d.to_string();
    EXPECT_EQ(run->degraded, snap->degraded()) << d.to_string();
  }
  // Runs are maximal: adjacent runs must actually differ.
  for (size_t i = 1; i < rr.runs.size(); ++i) {
    EXPECT_TRUE(rr.runs[i].answer != rr.runs[i - 1].answer ||
                rr.runs[i].degraded != rr.runs[i - 1].degraded)
        << "run " << i << " should have merged into its predecessor";
  }
}

TEST_F(WindowTest, RangeSpanningTheWindowEdgeYieldsUnavailableRuns) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  svc::SnapshotStore store({}, &s, &index);
  svc::Server server(store);
  svc::LoopbackConnection loop(server);
  svc::Client client(loop);

  net::Prefix probe = index.entries().front().prefix;
  const net::Date before = net::Date(config_->window_begin.days() - 3);
  const net::Date into = config_->window_begin + 2;
  svc::RangeResponse rr = client.range(before, into, probe);
  ASSERT_FALSE(rr.runs.empty());
  EXPECT_EQ(rr.runs.front().start, before);
  EXPECT_EQ(rr.runs.front().answer.status,
            static_cast<uint8_t>(svc::QueryStatus::kUnavailable));
  EXPECT_EQ(rr.runs.front().days, 3u);
  uint32_t total = 0;
  for (const svc::RangeRun& run : rr.runs) total += run.days;
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(rr.runs.back().answer.status,
            static_cast<uint8_t>(svc::QueryStatus::kOk));
}

TEST_F(WindowTest, LiveHeadAloneServesRangeOverItsOwnDay) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  auto snap = svc::compile_snapshot(s, index, date(30), 1);
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap);
  svc::LoopbackConnection loop(server);
  svc::Client client(loop);

  // The head answers its own day; the empty store serves neither side.
  const net::Prefix probe = index.entries().front().prefix;
  svc::RangeResponse rr = client.range(date(29), date(31), probe);
  ASSERT_EQ(rr.runs.size(), 3u);
  svc::Answer unavailable;
  unavailable.status = static_cast<uint8_t>(svc::QueryStatus::kUnavailable);
  EXPECT_EQ(rr.runs[0], (svc::RangeRun{date(29), 1, 0, unavailable}));
  EXPECT_EQ(rr.runs[1], (svc::RangeRun{date(30), 1, snap->degraded(),
                                       snap->lookup(probe, svc::kAllFields)}));
  EXPECT_EQ(rr.runs[2], (svc::RangeRun{date(31), 1, 0, unavailable}));
}

TEST(WindowProtocol, RangeCodecsValidateHostileInput) {
  svc::RangeQuery rq;
  rq.begin = net::Date::parse("2019-08-04");
  rq.end = net::Date::parse("2019-09-04");
  rq.prefix = net::Prefix::parse("203.0.113.0/24");
  rq.fields = svc::kAllFields;
  const std::string payload(
      svc::frame_payload(svc::encode_range_request(rq)));
  EXPECT_EQ(svc::decode_range_request(payload), rq);

  // The encoder refuses a bad window outright...
  svc::RangeQuery bad = rq;
  bad.end = net::Date(rq.begin.days() - 1);
  EXPECT_THROW(svc::encode_range_request(bad), InvariantError);

  // ...and the decoder refuses one arriving off the wire. Payload layout:
  // begin:u32 end:u32 network:u32 plen:u8 fields:u8 — swapping begin and
  // end inverts the window without assuming byte order.
  std::string inverted = payload;
  std::swap_ranges(inverted.begin(), inverted.begin() + 4,
                   inverted.begin() + 4);
  EXPECT_THROW(svc::decode_range_request(inverted), ParseError);

  // Zeroing `begin` (the epoch) stretches the span past kMaxRangeDays.
  std::string oversized = payload;
  std::fill(oversized.begin(), oversized.begin() + 4, '\0');
  EXPECT_THROW(svc::decode_range_request(oversized), ParseError);

  // Responses whose runs leave a gap pass the encoder (it only bounds the
  // run count) but must die in the decoder's contiguity check.
  svc::RangeResponse gapped;
  gapped.prefix = rq.prefix;
  gapped.fields = rq.fields;
  gapped.runs.push_back(svc::RangeRun{rq.begin, 2, 0, svc::Answer{}});
  gapped.runs.push_back(
      svc::RangeRun{net::Date(rq.begin.days() + 3), 1, 0, svc::Answer{}});
  EXPECT_THROW(svc::decode_range_response(
                   svc::frame_payload(svc::encode_range_response(gapped))),
               ParseError);
}

// ---------------------------------------------------------------------------
// 3. Incremental rescan.

TEST_F(WindowTest, RescanKeepsUnchangedDaysAndDropsChangedOrDeletedOnes) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  svc::SnapshotStore store(cfg, &s, &index);

  const net::Date a = date(30);
  const net::Date b = date(31);
  const net::Date c = date(32);
  auto snap_a = store.get(a);
  auto snap_b = store.get(b);
  auto snap_c = store.get(c);
  ASSERT_EQ(store.resident_count(), 3u);

  // Nothing changed on disk: rescan is a no-op for all three days, and a
  // re-get serves the very same object (no thundering herd of re-mmaps).
  store.rescan();
  EXPECT_EQ(store.resident_count(), 3u);
  EXPECT_EQ(store.get(a).get(), snap_a.get());
  EXPECT_EQ(store.stats().loads, 0u) << "an unchanged day was re-loaded";

  // Touch b's file (same bytes, newer mtime): that day — and only that
  // day — must drop and re-materialize.
  fs::last_write_time(store.path_for(b),
                      fs::file_time_type::clock::now() +
                          std::chrono::seconds(2));
  store.rescan();
  EXPECT_EQ(store.resident_count(), 2u);
  auto snap_b2 = store.get(b);
  EXPECT_NE(snap_b2.get(), snap_b.get());
  EXPECT_GT(snap_b2->version(), snap_b->version())
      << "a re-materialized day must mint a fresh version";
  EXPECT_EQ(store.stats().loads, 1u);

  // Delete c's file: rescan drops the day, and (window-bounded) compile
  // brings it back with a fresh version.
  fs::remove(store.path_for(c));
  store.rescan();
  EXPECT_EQ(store.resident_count(), 2u);
  auto snap_c2 = store.get(c);
  ASSERT_NE(snap_c2, nullptr);
  EXPECT_NE(snap_c2.get(), snap_c.get());

  // A memory-only store has no files to compare against: rescan drops
  // everything (the pre-store behavior, now per-day).
  svc::SnapshotStore mem({}, &s, &index);
  mem.get(a);
  ASSERT_EQ(mem.resident_count(), 1u);
  mem.rescan();
  EXPECT_EQ(mem.resident_count(), 0u);
}

TEST_F(WindowTest, ChainResolveEvictsItsBasesNotTheDaysClientsRead) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  TempDir tmp;
  svc::SnapshotStore::Config cfg;
  cfg.dir = tmp.dir();
  // One keyframe and seven deltas, each over the day before (the layout
  // `snapshot_tool delta` writes).
  constexpr int kDays = 8;
  {
    svc::SnapshotStore writer(cfg, &s, &index);
    std::shared_ptr<const svc::Snapshot> prev;
    for (int i = 0; i < kDays; ++i) {
      auto snap = writer.get(date(40 + i));
      ASSERT_NE(snap, nullptr);
      if (prev) {
        svc::save_snapshot_delta(*snap, *prev, writer.path_for(date(40 + i)));
      }
      prev = std::move(snap);
    }
  }

  // Capacity 3: below the chain plus the two hot days.
  cfg.max_resident = 3;
  svc::SnapshotStore store(cfg);
  const net::Date hot_new = date(40 + kDays - 1);
  const net::Date hot_old = date(40 + kDays - 2);
  const net::Date old_day = date(42);  // two bases below it
  auto newest = store.get(hot_new);
  auto second = store.get(hot_old);
  ASSERT_NE(newest, nullptr);
  ASSERT_NE(second, nullptr);
  const svc::SnapshotStore::Stats warm = store.stats();
  EXPECT_EQ(store.get(hot_new).get(), newest.get())
      << "the day a client asked for was evicted by its own bases";
  EXPECT_EQ(store.get(hot_old).get(), second.get());

  // An old-chain resolve evicts its cold bases first, and the hot days
  // stay resident: reading them again loads nothing.
  auto old_snap = store.get(old_day);
  ASSERT_NE(old_snap, nullptr);
  const svc::SnapshotStore::Stats resolved = store.stats();
  EXPECT_EQ(resolved.loads, warm.loads + 1);              // the keyframe
  EXPECT_EQ(resolved.delta_loads, warm.delta_loads + 2);  // two hops
  EXPECT_EQ(store.get(hot_new).get(), newest.get());
  EXPECT_EQ(store.get(hot_old).get(), second.get());
  // The requested day outlives its bases: it is still resident, and the
  // store holds exactly it and the two hot days.
  EXPECT_EQ(store.get(old_day).get(), old_snap.get());
  EXPECT_EQ(store.resident_count(), 3u);
  const svc::SnapshotStore::Stats after = store.stats();
  EXPECT_EQ(after.loads, resolved.loads);
  EXPECT_EQ(after.delta_loads, resolved.delta_loads);
}

// ---------------------------------------------------------------------------
// 4. HTTP keep-alive / pipelining.

TEST(WindowHttp, MessageSizeConsumesDeclaredBodies) {
  obs::Registry reg;
  svc::AdminHttpService http(reg);

  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string with_body =
      "POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  const std::string old_close = "GET /nope HTTP/1.0\r\n\r\n";

  // Three pipelined requests in one buffer: each message ends exactly
  // where the next begins — body bytes are consumed, never re-parsed.
  std::string buf = get + with_body + old_close;
  ASSERT_EQ(http.message_size(buf), get.size());
  std::string r1 = http.serve(buf.substr(0, get.size()));
  EXPECT_NE(r1.find("200 OK"), std::string::npos);
  EXPECT_NE(r1.find("Connection: keep-alive"), std::string::npos);

  buf.erase(0, get.size());
  ASSERT_EQ(http.message_size(buf), with_body.size())
      << "the declared body was not consumed";
  std::string r2 = http.serve(buf.substr(0, with_body.size()));
  EXPECT_NE(r2.find("405"), std::string::npos);
  EXPECT_NE(r2.find("Connection: keep-alive"), std::string::npos);

  buf.erase(0, with_body.size());
  ASSERT_EQ(http.message_size(buf), old_close.size());
  std::string r3 = http.serve(buf);
  EXPECT_NE(r3.find("404"), std::string::npos);
  EXPECT_NE(r3.find("Connection: close"), std::string::npos)
      << "HTTP/1.0 without a keep-alive header defaults to close";

  // An HTTP/1.1 request asking to close gets a close.
  std::string asked =
      http.serve("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(asked.find("Connection: close"), std::string::npos);

  // A partially-arrived body is not a message yet.
  const std::string partial =
      "GET /metrics HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  EXPECT_EQ(http.message_size(partial), 0u);
  EXPECT_EQ(http.message_size(partial + "1234567"), partial.size() + 7);

  // Unparseable and oversized Content-Length kill the stream, typed.
  EXPECT_THROW(http.message_size(
                   "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
               ParseError);
  EXPECT_THROW(http.message_size(
                   "GET / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
               ParseError);
}

TEST(WindowHttp, KeepAliveOverTcpSurvivesRequestBodies) {
  obs::Registry reg;
  svc::AdminHttpService http(reg);
  svc::EpollServer tcp(http, svc::TransportOptions{});

  // A response framer: head plus its declared Content-Length body.
  auto framer = [](std::string_view b) -> size_t {
    size_t head = b.find("\r\n\r\n");
    if (head == std::string_view::npos) return 0;
    head += 4;
    size_t cl = b.find("Content-Length: ");
    size_t body = 0;
    if (cl != std::string_view::npos && cl < head) {
      body = static_cast<size_t>(
          std::atoll(std::string(b.substr(cl + 16, 20)).c_str()));
    }
    return b.size() >= head + body ? head + body : 0;
  };
  svc::TcpClientConnection conn("127.0.0.1", tcp.port(), framer);

  // A GET carrying a (pointless but legal) body used to desync the stream
  // and poison every request after it on the same connection.
  std::string r1 = conn.roundtrip(
      "GET /metrics HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyz");
  EXPECT_NE(r1.find("200 OK"), std::string::npos);
  std::string r2 = conn.roundtrip("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(r2.find("200 OK"), std::string::npos);
  EXPECT_EQ(tcp.stats().accepted, 1u)
      << "the second request should ride the same connection";
  tcp.stop();
}

}  // namespace
}  // namespace droplens
