// The streaming subsystem: event codec hostility, EventLog serial
// semantics, online-vs-batch alarm equivalence, Applier-compact vs
// compile_snapshot structural identity, flat snapshot diffs, the
// publisher/subscriber delta protocol (including the RTR-style reset), and
// replay determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/alarms.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "sim/event_replayer.hpp"
#include "sim/generator.hpp"
#include "stream/alarm_monitor.hpp"
#include "stream/applier.hpp"
#include "stream/event.hpp"
#include "stream/event_log.hpp"
#include "stream/publisher.hpp"
#include "stream/snapshot_diff.hpp"
#include "stream/subscriber.hpp"
#include "stream/wire.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens {
namespace {

net::Prefix P(const char* s) { return net::Prefix::parse(s); }

stream::Event make_event(stream::EventType type, const char* prefix,
                         net::Date date, uint32_t value = 0, uint8_t aux = 0,
                         uint8_t aux2 = 0) {
  stream::Event e;
  e.type = type;
  e.prefix = P(prefix);
  e.date = date;
  e.value = value;
  e.aux = aux;
  e.aux2 = aux2;
  return e;
}

// ---------------------------------------------------------------------------
// Event codec

TEST(StreamEvent, CodecRoundTripsEveryType) {
  const net::Date d(7300);
  std::vector<stream::Event> originals = {
      make_event(stream::EventType::kBgpAnnounce, "10.0.0.0/8", d, 65001),
      make_event(stream::EventType::kBgpWithdraw, "10.1.0.0/16", d, 65002),
      make_event(stream::EventType::kRoaAdd, "192.0.2.0/24", d, 65003, 28, 2),
      make_event(stream::EventType::kRoaRemove, "192.0.2.0/24", d, 0, 32, 1),
      make_event(stream::EventType::kDropAdd, "198.51.100.0/24", d, 0, 0x15,
                 1),
      make_event(stream::EventType::kDropRemove, "198.51.100.0/24", d, 0,
                 0x15, 0),
      make_event(stream::EventType::kIrrAdd, "203.0.113.0/24", d, 65004),
      make_event(stream::EventType::kIrrRemove, "203.0.113.0/24", d, 65004),
      make_event(stream::EventType::kDelegationAdd, "41.0.0.0/8", d, 0, 0, 3),
      make_event(stream::EventType::kDelegationRemove, "41.0.0.0/8", d, 0, 0,
                 3),
      make_event(stream::EventType::kRovSet, "10.0.0.0/8", d, 1),
      make_event(stream::EventType::kRovClear, "10.0.0.0/8", d, 2),
      make_event(stream::EventType::kRirSet, "0.0.0.0/0", d, 4),
      make_event(stream::EventType::kRirClear, "255.255.255.255/32", d, 4),
  };
  std::string wire;
  for (const stream::Event& e : originals) stream::encode_event(wire, e);
  ASSERT_EQ(wire.size(), originals.size() * stream::kEventRecordSize);

  std::vector<stream::Event> decoded =
      stream::decode_events(wire, originals.size(), 100);
  ASSERT_EQ(decoded.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    stream::Event expect = originals[i];
    expect.seq = 100 + i;
    EXPECT_EQ(decoded[i], expect) << decoded[i].to_string();
  }
}

TEST(StreamEvent, DecodeRejectsHostileInput) {
  std::string good;
  stream::encode_event(good, make_event(stream::EventType::kBgpAnnounce,
                                        "10.0.0.0/8", net::Date(7300), 1));
  // Truncated record.
  EXPECT_THROW(stream::decode_event(good.substr(0, 15)), ParseError);
  EXPECT_THROW(stream::decode_events(good, 2, 0), ParseError);
  // Unknown types: 0 and one past the last defined value.
  std::string bad = good;
  bad[0] = '\x00';
  EXPECT_THROW(stream::decode_event(bad), ParseError);
  bad[0] = '\x0f';
  EXPECT_THROW(stream::decode_event(bad), ParseError);
  // Impossible prefix length.
  bad = good;
  bad[1] = '\x21';
  EXPECT_THROW(stream::decode_event(bad), ParseError);
  // Non-canonical network: host bits set below the prefix length.
  bad = good;
  bad[8] = '\x01';  // 10.0.0.1/8
  EXPECT_THROW(stream::decode_event(bad), ParseError);
  // ROA with maxLength below the prefix length.
  std::string roa;
  stream::encode_event(roa, make_event(stream::EventType::kRoaAdd,
                                       "192.0.2.0/24", net::Date(7300), 1,
                                       24, 0));
  bad = roa;
  bad[2] = '\x10';  // maxLength 16 < /24
  EXPECT_THROW(stream::decode_event(bad), ParseError);
  bad[2] = '\x28';  // maxLength 40 > 32
  EXPECT_THROW(stream::decode_event(bad), ParseError);
}

TEST(StreamEvent, CanonicalOrderPutsRemovalsFirst) {
  const net::Date d(7300);
  stream::Event withdraw =
      make_event(stream::EventType::kBgpWithdraw, "10.0.0.0/8", d, 2);
  stream::Event announce =
      make_event(stream::EventType::kBgpAnnounce, "10.0.0.0/8", d, 1);
  stream::Event later = announce;
  later.date = d + 1;
  EXPECT_TRUE(stream::canonical_less(withdraw, announce));
  EXPECT_FALSE(stream::canonical_less(announce, withdraw));
  EXPECT_TRUE(stream::canonical_less(announce, later));
  // Within a day and type, prefix then value break ties.
  stream::Event other =
      make_event(stream::EventType::kBgpAnnounce, "11.0.0.0/8", d, 1);
  EXPECT_TRUE(stream::canonical_less(announce, other));
  stream::Event higher = announce;
  higher.value = 9;
  EXPECT_TRUE(stream::canonical_less(announce, higher));
}

// ---------------------------------------------------------------------------
// EventLog serial semantics

TEST(StreamEventLog, AssignsSequencesAndServesTails) {
  stream::EventLog log;
  for (uint32_t i = 0; i < 10; ++i) {
    stream::Event e = make_event(stream::EventType::kBgpAnnounce,
                                 "10.0.0.0/8", net::Date(7300), i + 1);
    EXPECT_EQ(log.append(e), i);
  }
  EXPECT_EQ(log.head(), 10u);
  EXPECT_EQ(log.floor(), 0u);
  EXPECT_EQ(log.size(), 10u);

  stream::EventLog::Tail all = log.since(0, 100);
  EXPECT_FALSE(all.gap);
  EXPECT_EQ(all.from, 0u);
  EXPECT_EQ(all.head, 10u);
  ASSERT_EQ(all.events.size(), 10u);
  for (size_t i = 0; i < all.events.size(); ++i) {
    EXPECT_EQ(all.events[i].seq, i);
    EXPECT_EQ(all.events[i].value, i + 1);
  }

  // max_events caps the run; the next ask resumes exactly after it.
  stream::EventLog::Tail first = log.since(0, 4);
  ASSERT_EQ(first.events.size(), 4u);
  stream::EventLog::Tail second = log.since(4, 100);
  ASSERT_EQ(second.events.size(), 6u);
  EXPECT_EQ(second.events.front().seq, 4u);

  // Caught-up subscriber: empty tail, not a gap.
  stream::EventLog::Tail caught_up = log.since(10, 100);
  EXPECT_FALSE(caught_up.gap);
  EXPECT_TRUE(caught_up.events.empty());
  // Asking beyond head is nonsense — answered as a gap.
  EXPECT_TRUE(log.since(11, 100).gap);
}

TEST(StreamEventLog, TrimAndRetentionProduceGaps) {
  stream::EventLog log;
  for (uint32_t i = 0; i < 10; ++i) {
    log.append(make_event(stream::EventType::kBgpAnnounce, "10.0.0.0/8",
                          net::Date(7300), i + 1));
  }
  log.trim(6);
  EXPECT_EQ(log.floor(), 6u);
  EXPECT_EQ(log.size(), 4u);
  stream::EventLog::Tail gap = log.since(5, 100);
  EXPECT_TRUE(gap.gap);
  EXPECT_EQ(gap.from, 10u);  // reset target: resume from head
  EXPECT_TRUE(gap.events.empty());
  stream::EventLog::Tail ok = log.since(6, 100);
  EXPECT_FALSE(ok.gap);
  ASSERT_EQ(ok.events.size(), 4u);
  EXPECT_EQ(ok.events.front().seq, 6u);

  // A bounded-retention log trims itself as it appends.
  stream::EventLog ring(3);
  for (uint32_t i = 0; i < 8; ++i) {
    ring.append(make_event(stream::EventType::kBgpAnnounce, "10.0.0.0/8",
                           net::Date(7300), i));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.floor(), 5u);
  EXPECT_TRUE(ring.since(4, 100).gap);
  EXPECT_EQ(ring.since(5, 100).events.size(), 3u);
}

// ---------------------------------------------------------------------------
// Wire codecs (subscribe / delta payloads)

TEST(StreamWire, SubscribeRoundTripAndHostileInput) {
  stream::SubscribeRequest request{.from_seq = 0x1122334455667788ull,
                                   .max_events = 512};
  std::string payload = stream::encode_subscribe(request);
  EXPECT_EQ(stream::decode_subscribe(payload), request);

  EXPECT_THROW(stream::decode_subscribe(payload.substr(0, 11)), ParseError);
  EXPECT_THROW(stream::decode_subscribe(payload + "x"), ParseError);
  stream::SubscribeRequest zero{.from_seq = 0, .max_events = 0};
  EXPECT_THROW(stream::decode_subscribe(stream::encode_subscribe(zero)),
               ParseError);
}

TEST(StreamWire, DeltaRoundTripAndHostileInput) {
  stream::Delta delta;
  delta.head = 42;
  delta.from = 40;
  delta.date = net::Date(7300);
  delta.events = {make_event(stream::EventType::kBgpAnnounce, "10.0.0.0/8",
                             net::Date(7300), 65001),
                  make_event(stream::EventType::kRoaAdd, "192.0.2.0/24",
                             net::Date(7300), 65003, 28, 1)};
  core::Alarm alarm;
  alarm.kind = core::AlarmKind::kNewSubPrefix;
  alarm.prefix = P("10.1.0.0/16");
  alarm.monitored = P("10.0.0.0/8");
  alarm.when = net::Date(7300);
  alarm.new_origin = net::Asn(65001);
  alarm.on_drop = true;
  delta.alarms = {alarm};

  std::string payload = stream::encode_delta(delta);
  stream::Delta decoded = stream::decode_delta(payload);
  EXPECT_FALSE(decoded.reset);
  EXPECT_EQ(decoded.head, delta.head);
  EXPECT_EQ(decoded.from, delta.from);
  EXPECT_EQ(decoded.date, delta.date);
  ASSERT_EQ(decoded.events.size(), 2u);
  // Sequence numbers are reconstructed from `from`.
  EXPECT_EQ(decoded.events[0].seq, 40u);
  EXPECT_EQ(decoded.events[1].seq, 41u);
  ASSERT_EQ(decoded.alarms.size(), 1u);
  EXPECT_EQ(decoded.alarms[0].kind, alarm.kind);
  EXPECT_EQ(decoded.alarms[0].prefix, alarm.prefix);
  EXPECT_EQ(decoded.alarms[0].monitored, alarm.monitored);
  EXPECT_EQ(decoded.alarms[0].when, alarm.when);
  EXPECT_EQ(decoded.alarms[0].new_origin, alarm.new_origin);
  EXPECT_EQ(decoded.alarms[0].on_drop, alarm.on_drop);

  // Hostile bytes: truncation, a bad status byte, counts that lie about the
  // payload size, and a reset that smuggles records.
  EXPECT_THROW(stream::decode_delta(payload.substr(0, payload.size() - 1)),
               ParseError);
  EXPECT_THROW(stream::decode_delta(payload + "x"), ParseError);
  std::string bad = payload;
  bad[0] = '\x02';
  EXPECT_THROW(stream::decode_delta(bad), ParseError);
  bad = payload;
  bad[21] = '\x7f';  // event_count high byte: claims ~2M events
  EXPECT_THROW(stream::decode_delta(bad), ParseError);
  bad = payload;
  bad[0] = '\x01';  // reset, but events/alarms still present
  EXPECT_THROW(stream::decode_delta(bad), ParseError);

  // Oversized deltas refuse to encode (frame-size invariant).
  stream::Delta huge = delta;
  huge.alarms.clear();
  huge.events.assign(stream::kMaxDeltaEvents + 1, delta.events[0]);
  EXPECT_THROW(stream::encode_delta(huge), InvariantError);
}

// ---------------------------------------------------------------------------
// World-backed equivalence tests

class StreamWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig(sim::ScenarioConfig::small());
    world_ = sim::generate(*config_).release();
    cache_ = new core::SnapshotCache(world_->registry, world_->fleet,
                                     world_->roas, world_->drop, &world_->irr);
    replayer_ = new sim::EventReplayer(*world_);
  }
  static void TearDownTestSuite() {
    delete replayer_;
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
  stream::AlarmMonitor::Config monitor_config() const {
    stream::AlarmMonitor::Config config;
    config.window_begin = config_->window_begin;
    config.window_end = config_->window_end;
    config.drop = &world_->drop;
    return config;
  }
  static sim::ScenarioConfig* config_;
  static sim::World* world_;
  static core::SnapshotCache* cache_;
  static sim::EventReplayer* replayer_;
};

sim::ScenarioConfig* StreamWorldTest::config_ = nullptr;
sim::World* StreamWorldTest::world_ = nullptr;
core::SnapshotCache* StreamWorldTest::cache_ = nullptr;
sim::EventReplayer* StreamWorldTest::replayer_ = nullptr;

TEST_F(StreamWorldTest, ReplayerEventsAreCanonicallyOrdered) {
  const std::vector<stream::Event>& events = replayer_->events();
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             stream::canonical_less));
  // The per-day view tiles the stream.
  size_t total = 0;
  for (net::Date d = events.front().date; d <= events.back().date; d = d + 1) {
    for (const stream::Event& e : replayer_->on(d)) {
      EXPECT_EQ(e.date, d);
      ++total;
    }
  }
  EXPECT_EQ(total, events.size());
  // Lowering the same world twice is deterministic.
  sim::EventReplayer again(*world_);
  EXPECT_EQ(again.events(), events);
}

TEST_F(StreamWorldTest, OnlineAlarmsMatchBatchReplayExactly) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  core::AlarmResult batch = core::analyze_alarms(s, index);

  stream::AlarmMonitor monitor(monitor_config());
  for (const stream::Event& e : replayer_->events()) monitor.on_event(e);

  ASSERT_EQ(monitor.alarms().size(), batch.alarms.size());
  for (size_t i = 0; i < batch.alarms.size(); ++i) {
    const core::Alarm& online = monitor.alarms()[i];
    const core::Alarm& offline = batch.alarms[i];
    EXPECT_EQ(online.kind, offline.kind) << i;
    EXPECT_EQ(online.prefix, offline.prefix) << i;
    EXPECT_EQ(online.monitored, offline.monitored) << i;
    EXPECT_EQ(online.when, offline.when) << i;
    EXPECT_EQ(online.new_origin, offline.new_origin) << i;
    EXPECT_EQ(online.on_drop, offline.on_drop) << i;
  }
  core::AlarmResult online = monitor.result(s, index);
  EXPECT_EQ(online.drop_hijacks_total, batch.drop_hijacks_total);
  EXPECT_EQ(online.drop_hijacks_alarmed, batch.drop_hijacks_alarmed);
  EXPECT_EQ(online.drop_hijacks_stealthy, batch.drop_hijacks_stealthy);
}

TEST_F(StreamWorldTest, ApplierCompactMatchesCompileSnapshot) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);

  stream::Applier applier;
  applier.seed_rir(world_->registry);
  size_t next = 0;
  const std::vector<stream::Event>& events = replayer_->events();
  for (net::Date d : {config_->window_begin, config_->window_begin + 60,
                      config_->window_end}) {
    while (next < events.size() && events[next].date <= d) {
      applier.apply(events[next]);
      ++next;
    }
    std::shared_ptr<const svc::Snapshot> live = applier.compact(d, 7);
    std::shared_ptr<const svc::Snapshot> batch =
        svc::compile_snapshot(s, index, d, 7);
    EXPECT_TRUE(stream::snapshots_equal(*live, *batch))
        << "divergence on " << d.to_string();
    EXPECT_EQ(live->date(), d);
    EXPECT_EQ(live->version(), 7u);
  }
  EXPECT_EQ(applier.rejected(), 0u);
}

TEST_F(StreamWorldTest, ReplayIsDeterministicAcrossThreadCounts) {
  core::Study seq = study();
  core::Study par = study();
  util::ThreadPool pool(4);
  par.pool = &pool;
  core::DropIndex index = core::DropIndex::build(seq);
  net::Date d = config_->window_begin + 30;

  stream::Applier applier;
  applier.seed_rir(world_->registry);
  for (const stream::Event& e : replayer_->events()) {
    if (e.date <= d) applier.apply(e);
  }
  std::shared_ptr<const svc::Snapshot> live = applier.compact(d, 1);
  std::shared_ptr<const svc::Snapshot> one =
      svc::compile_snapshot(seq, index, d, 1);
  std::shared_ptr<const svc::Snapshot> four =
      svc::compile_snapshot(par, index, d, 1);
  EXPECT_TRUE(stream::snapshots_equal(*one, *four));
  EXPECT_TRUE(stream::snapshots_equal(*live, *one));
  EXPECT_TRUE(stream::snapshots_equal(*live, *four));
}

TEST_F(StreamWorldTest, SnapshotDiffRoundTrips) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date da = config_->window_begin + 10;
  net::Date db = config_->window_begin + 90;
  std::shared_ptr<const svc::Snapshot> a =
      svc::compile_snapshot(s, index, da, 1);
  std::shared_ptr<const svc::Snapshot> b =
      svc::compile_snapshot(s, index, db, 2);

  std::vector<stream::Event> diff = stream::diff_snapshots(*a, *b);
  EXPECT_TRUE(std::is_sorted(diff.begin(), diff.end(),
                             stream::canonical_less));
  svc::Snapshot rebuilt = stream::apply_diff(*a, diff, db, 2);
  EXPECT_TRUE(stream::snapshots_equal(rebuilt, *b));
  EXPECT_EQ(rebuilt.date(), db);
  EXPECT_EQ(rebuilt.version(), 2u);

  // Equal snapshots diff to nothing; empty diffs change nothing.
  EXPECT_TRUE(stream::diff_snapshots(*b, *b).empty());
  svc::Snapshot same = stream::apply_diff(*a, {}, da, 1);
  EXPECT_TRUE(stream::snapshots_equal(same, *a));

  // The Applier refuses flat-diff assertion types: derived state is
  // computed, never asserted, on the live path.
  stream::Applier applier;
  for (const stream::Event& e : diff) {
    if (e.type == stream::EventType::kRovSet ||
        e.type == stream::EventType::kRovClear ||
        e.type == stream::EventType::kRirSet ||
        e.type == stream::EventType::kRirClear) {
      EXPECT_FALSE(applier.apply(e));
    }
  }
}

TEST_F(StreamWorldTest, PublisherDeliversDeltasToSubscriber) {
  stream::Publisher publisher(monitor_config());
  publisher.seed_rir(world_->registry);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.set_stream_feed(&publisher);
  svc::LoopbackConnection conn(server);
  svc::Client client(conn);
  stream::Subscriber subscriber(client);

  // Interleave ingest with polling so deltas are served mid-stream.
  const std::vector<stream::Event>& events = replayer_->events();
  std::vector<stream::Event> received;
  std::vector<core::Alarm> alarmed;
  size_t ingested = 0;
  while (ingested < events.size() || subscriber.next() < publisher.head()) {
    size_t burst = std::min<size_t>(1000, events.size() - ingested);
    for (size_t i = 0; i < burst; ++i) publisher.ingest(events[ingested++]);
    stream::Delta delta = subscriber.poll(512);
    ASSERT_FALSE(delta.reset);
    for (stream::Event e : delta.events) {
      EXPECT_EQ(e.seq, received.size());
      e.seq = 0;  // replayer events are unstamped
      received.push_back(e);
    }
    for (const core::Alarm& a : delta.alarms) alarmed.push_back(a);
  }
  EXPECT_EQ(received, events);
  EXPECT_EQ(subscriber.next(), publisher.head());
  EXPECT_EQ(subscriber.resets(), 0u);

  // The alarms carried by the deltas are the monitor's, in firing order.
  const std::vector<core::Alarm>& fired = publisher.monitor().alarms();
  ASSERT_EQ(alarmed.size(), fired.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(alarmed[i].kind, fired[i].kind);
    EXPECT_EQ(alarmed[i].prefix, fired[i].prefix);
    EXPECT_EQ(alarmed[i].when, fired[i].when);
  }
}

TEST_F(StreamWorldTest, TrimForcesSubscriberReset) {
  stream::Publisher publisher(monitor_config());
  publisher.seed_rir(world_->registry);
  const std::vector<stream::Event>& events = replayer_->events();
  ASSERT_GT(events.size(), 300u);
  for (const stream::Event& e : events) publisher.ingest(e);
  publisher.trim(100);  // discard all but the last 100 events

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.set_stream_feed(&publisher);
  svc::LoopbackConnection conn(server);
  svc::Client client(conn);

  // A subscriber from the beginning of history lands below the floor.
  stream::Subscriber lagging(client, 0);
  stream::Delta reset = lagging.poll();
  EXPECT_TRUE(reset.reset);
  EXPECT_TRUE(reset.events.empty());
  EXPECT_EQ(lagging.next(), publisher.head());
  EXPECT_EQ(lagging.resets(), 1u);
  // After re-baselining, polling resumes cleanly from the head.
  stream::Delta tail = lagging.poll();
  EXPECT_FALSE(tail.reset);
  EXPECT_TRUE(tail.events.empty());
  stream::Event extra = events.back();
  extra.seq = 0;
  publisher.ingest(extra);
  stream::Delta next = lagging.poll();
  EXPECT_FALSE(next.reset);
  ASSERT_EQ(next.events.size(), 1u);
  EXPECT_EQ(next.events[0].seq, publisher.head() - 1);

  // The retained suffix is still served without a reset.
  stream::Subscriber resumed(client, publisher.head() - 50);
  stream::Delta suffix = resumed.poll();
  EXPECT_FALSE(suffix.reset);
  EXPECT_EQ(suffix.events.size(), 50u);
  EXPECT_EQ(resumed.resets(), 0u);
}

// A server that answers out of contract (events starting at the wrong
// sequence) must make the subscriber throw, never silently skip.
class SkewedFeed : public svc::StreamFeed {
 public:
  std::string handle_subscribe(std::string_view payload) override {
    stream::SubscribeRequest request = stream::decode_subscribe(payload);
    stream::Delta delta;
    delta.head = request.from_seq + 10;
    delta.from = request.from_seq + 2;  // claims to skip two events
    delta.date = net::Date(7300);
    delta.events = {make_event(stream::EventType::kBgpAnnounce, "10.0.0.0/8",
                               net::Date(7300), 65001)};
    return svc::encode_frame(svc::FrameType::kDeltaResponse,
                             stream::encode_delta(delta));
  }
};

TEST_F(StreamWorldTest, SubscriberRejectsNonConsecutiveDeltas) {
  SkewedFeed feed;
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.set_stream_feed(&feed);
  svc::LoopbackConnection conn(server);
  svc::Client client(conn);
  stream::Subscriber subscriber(client, 5);
  EXPECT_THROW(subscriber.poll(), std::runtime_error);
  EXPECT_EQ(subscriber.next(), 5u);  // a bad answer must not advance us
}

}  // namespace
}  // namespace droplens
