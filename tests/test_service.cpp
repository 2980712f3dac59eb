// The query service: SegmentMap semantics, snapshot compilation against the
// raw substrates, the wire protocol, client/server round-trips over loopback
// and TCP, whois riding the same transport, and the built-in counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/drop_index.hpp"
#include "core/engine.hpp"
#include "core/snapshot_cache.hpp"
#include "irr/whois.hpp"
#include "net/segment_map.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "svc/client.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"
#include "svc/whois_service.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens {
namespace {

net::Prefix P(const char* s) { return net::Prefix::parse(s); }

TEST(SegmentMap, AssignIsOverwriteLookupIsPointStab) {
  net::SegmentMap<int> map;
  map.assign(P("10.0.0.0/8"), 1);
  map.assign(P("10.1.0.0/16"), 2);  // later paint wins where they overlap
  map.finalize();
  EXPECT_EQ(*map.lookup(P("10.0.0.0/8")), 1);
  EXPECT_EQ(*map.lookup(P("10.1.0.0/16")), 2);
  EXPECT_EQ(*map.lookup(P("10.1.2.0/24")), 2);
  EXPECT_EQ(*map.lookup(P("10.200.0.0/16")), 1);
  EXPECT_EQ(map.lookup(P("11.0.0.0/8")), nullptr);
}

TEST(SegmentMap, MergeCombinesOverlaps) {
  net::SegmentMap<int> map;
  auto orr = [](const std::optional<int>& existing, const int& v) {
    return existing ? (*existing | v) : v;
  };
  map.merge(P("10.0.0.0/24").first(), P("10.0.0.0/24").end(), 1, orr);
  map.merge(P("10.0.0.0/25").first(), P("10.0.0.0/25").end(), 2, orr);
  map.finalize();
  EXPECT_EQ(*map.lookup(P("10.0.0.0/25")), 3);
  EXPECT_EQ(*map.lookup(P("10.0.0.128/25")), 1);
}

TEST(SegmentMap, AdjacentEqualSegmentsCoalesce) {
  net::SegmentMap<int> map;
  map.assign(P("10.0.0.0/25"), 7);
  map.assign(P("10.0.0.128/25"), 7);
  map.finalize();
  ASSERT_EQ(map.segments().size(), 1u);
  EXPECT_EQ(map.segments()[0].begin, P("10.0.0.0/24").first());
  EXPECT_EQ(map.segments()[0].end, P("10.0.0.0/24").end());
}

TEST(SegmentMap, EraseSplitsCoalescesAndUnpaints) {
  using Seg = net::SegmentMap<int>::Segment;
  net::SegmentMap<int> map;
  map.assign(0, 100, 1);
  map.assign(100, 200, 2);
  map.assign(300, 400, 3);
  map.erase(40, 60);    // inside one segment: splits it
  map.erase(150, 320);  // across a boundary, over the gap, into the next
  map.erase(500, 600);  // over unpainted space only: no-op
  map.assign(45, 60, 1);  // repaints the hole's tail: coalesces rightward
  map.finalize();
  EXPECT_EQ(std::vector<Seg>(map.segments().begin(), map.segments().end()),
            (std::vector<Seg>{{0, 40, 1}, {45, 100, 1}, {100, 150, 2},
                              {320, 400, 3}}));
  EXPECT_EQ(map.lookup(uint64_t{42}), nullptr);
  EXPECT_EQ(map.lookup(uint64_t{250}), nullptr);

  net::SegmentMap<int> cleared;
  cleared.assign(0, 10, 1);
  cleared.erase(0, 10);
  cleared.finalize();
  EXPECT_TRUE(cleared.empty());
}

class ServiceWorldTest : public ::testing::Test {
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

sim::ScenarioConfig* ServiceWorldTest::config_ = nullptr;
sim::World* ServiceWorldTest::world_ = nullptr;
core::SnapshotCache* ServiceWorldTest::cache_ = nullptr;

// A broad sample of prefixes to interrogate: every DROP entry plus fixed
// probes spread across the address space.
std::vector<net::Prefix> probe_prefixes(const core::DropIndex& index) {
  std::vector<net::Prefix> probes;
  for (const core::DropEntry& e : index.entries()) probes.push_back(e.prefix);
  for (uint32_t octet = 1; octet < 224; octet += 7) {
    probes.push_back(net::Prefix(net::Ipv4(octet << 24), 8));
    probes.push_back(net::Prefix(net::Ipv4((octet << 24) | 0x00010000), 16));
    probes.push_back(net::Prefix(net::Ipv4((octet << 24) | 0x00020300), 24));
  }
  return probes;
}

TEST_F(ServiceWorldTest, SnapshotMatchesSubstrates) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  auto snap = svc::compile_snapshot(s, index, d, 1);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(snap->date(), d);
  EXPECT_EQ(snap->degraded(), 0);  // no ledger: every feed trusted

  const net::IntervalSet routed = world_->fleet.routed_space(d);
  const net::IntervalSet as0 = world_->roas.signed_space(
      d, rpki::TalSet::all(), rpki::RoaArchive::Filter::kAs0Only);
  const net::IntervalSet allocated = world_->registry.allocated_space(d);
  net::IntervalSet irr_covered;
  for (const irr::Registration& reg : world_->irr.all_history()) {
    if (reg.live_on(d)) irr_covered.insert(reg.object.prefix);
  }
  net::IntervalSet dropped;
  for (const net::Prefix& p : world_->drop.snapshot(d)) dropped.insert(p);

  for (const net::Prefix& p : probe_prefixes(index)) {
    svc::Answer a = snap->lookup(p, svc::kAllFields);
    EXPECT_EQ(a.routed, routed.intersects(p)) << p.to_string();
    EXPECT_EQ(a.as0_covered, as0.intersects(p)) << p.to_string();
    EXPECT_EQ(a.irr_registered, irr_covered.intersects(p)) << p.to_string();
    // DROP membership is a point-stab at the network address.
    EXPECT_EQ(a.drop_listed, dropped.contains(net::Ipv4(p.network().value())))
        << p.to_string();
    if (a.rir_status == svc::RirStatus::kAllocated) {
      EXPECT_TRUE(allocated.contains(net::Ipv4(p.network().value())))
          << p.to_string();
    }
    if (a.drop_listed) {
      EXPECT_NE(a.categories, 0) << p.to_string();
      EXPECT_NE(a.bucket, svc::kNoValue) << p.to_string();
    } else {
      EXPECT_EQ(a.bucket, svc::kNoValue) << p.to_string();
    }
  }
}

TEST_F(ServiceWorldTest, SnapshotRovAgreesWithDirectValidation) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  auto snap = svc::compile_snapshot(s, index, d, 1);
  size_t announced_probes = 0;
  for (const net::Prefix& p : world_->fleet.announced_prefixes_on(d)) {
    svc::Answer a = snap->lookup(p, svc::field_bit(svc::Field::kRov));
    ASSERT_NE(a.rov, svc::RovStatus::kUnrouted) << p.to_string();
    // The snapshot answers for the most specific covering announcement —
    // which is p itself when we probe an announced prefix exactly, unless a
    // longer announcement starts at the same address. Check the aggregate
    // matches a direct RFC 6811 pass for prefixes where p is the answer.
    svc::RovStatus worst = svc::RovStatus::kNotFound;
    for (net::Asn origin : world_->fleet.origins_on(p, d)) {
      switch (world_->roas.validate_route(p, origin, d)) {
        case rpki::Validity::kInvalid:
          worst = svc::RovStatus::kInvalid;
          break;
        case rpki::Validity::kValid:
          if (worst != svc::RovStatus::kInvalid) worst = svc::RovStatus::kValid;
          break;
        case rpki::Validity::kNotFound:
          break;
      }
    }
    bool shadowed = false;
    for (const net::Prefix& q : world_->fleet.announced_prefixes_on(d)) {
      if (q.length() > p.length() && q.network().value() == p.network().value()) {
        shadowed = true;
      }
    }
    if (!shadowed) {
      EXPECT_EQ(a.rov, worst) << p.to_string();
      ++announced_probes;
    }
  }
  EXPECT_GT(announced_probes, 0u);
}

TEST_F(ServiceWorldTest, SnapshotIsByteIdenticalAcrossThreadCounts) {
  core::Study s1 = study();
  core::DropIndex index = core::DropIndex::build(s1);
  auto seq = svc::compile_snapshot(s1, index, config_->window_begin + 60, 5);

  util::ThreadPool pool(4);
  core::SnapshotCache cache(world_->registry, world_->fleet, world_->roas,
                            world_->drop, &world_->irr);
  core::Study s4 = study();
  s4.pool = &pool;
  s4.snapshots = &cache;
  auto par = svc::compile_snapshot(s4, index, config_->window_begin + 60, 5);

  // Byte-identical responses for the same batch prove identical artifacts.
  std::vector<svc::Query> batch;
  for (const net::Prefix& p : probe_prefixes(index)) {
    batch.push_back(svc::Query{config_->window_begin + 60, p, svc::kAllFields});
  }
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server_seq(history);
  server_seq.publish(seq);
  svc::Server server_par(history, &pool);
  server_par.publish(par);
  std::string request = svc::encode_query_request(batch);
  EXPECT_EQ(server_seq.serve(request), server_par.serve(request));
}

TEST_F(ServiceWorldTest, ClientServerLoopbackRoundtrip) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  auto snap = svc::compile_snapshot(s, index, d, 3);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  svc::LoopbackConnection conn(server);
  svc::Client client(conn);

  // Before the first publish no date is servable.
  EXPECT_EQ(client.lookup(d, P("10.0.0.0/8")).status,
            static_cast<uint8_t>(svc::QueryStatus::kUnavailable));

  server.publish(snap);
  std::vector<svc::Query> batch;
  for (const net::Prefix& p : probe_prefixes(index)) {
    batch.push_back(svc::Query{d, p, svc::kAllFields});
  }
  svc::QueryResponse response = client.query(batch);
  EXPECT_EQ(response.snapshot_version, 3u);
  EXPECT_EQ(response.date, d);
  ASSERT_EQ(response.answers.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(response.answers[i], snap->lookup(batch[i].prefix, svc::kAllFields));
  }

  // A query for another date is answered, flagged, and field-less.
  svc::Answer wrong = client.lookup(d + 1, P("10.0.0.0/8"));
  EXPECT_EQ(wrong.status,
            static_cast<uint8_t>(svc::QueryStatus::kUnavailable));
  EXPECT_EQ(wrong.fields, 0);
}

TEST_F(ServiceWorldTest, ClientSplitsOversizedBatches) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(svc::compile_snapshot(s, index, d, 1));
  svc::LoopbackConnection conn(server);
  svc::Client client(conn);

  std::vector<svc::Query> batch(svc::kMaxBatch + 100,
                                svc::Query{d, P("10.0.0.0/8"), svc::kAllFields});
  svc::QueryResponse response = client.query(batch);
  ASSERT_EQ(response.answers.size(), batch.size());
  for (size_t i = 1; i < response.answers.size(); ++i) {
    EXPECT_EQ(response.answers[i], response.answers[0]);
  }
  EXPECT_EQ(server.stats().requests, 2u);  // two frames on the wire
}

TEST_F(ServiceWorldTest, StatsCountersTrackTraffic) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  auto snap = svc::compile_snapshot(s, index, d, 1);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  svc::LoopbackConnection conn(server);
  svc::Client client(conn);
  server.publish(snap);
  server.publish(snap);  // second publish = one reload

  EXPECT_EQ(client
                .query({svc::Query{d, P("10.0.0.0/8"),
                                   svc::field_bit(svc::Field::kRouted)}})
                .snapshot_version,
            1u);
  client.lookup(d, P("10.0.0.0/8"),
                svc::field_bit(svc::Field::kRouted) |
                    svc::field_bit(svc::Field::kDrop));
  // One garbage frame: counted malformed, answered with an error frame.
  std::string garbage = "DL";
  garbage += '\x01';
  garbage += '\x05';  // kError from a client is unexpected
  garbage.append(4, '\0');
  std::string error_response = server.serve(garbage);
  EXPECT_EQ(svc::decode_header(error_response).type, svc::FrameType::kError);

  svc::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);  // 2 lookups + garbage
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.reloads, 1u);
  // Per-field lookups and latencies are registry series.
  obs::Registry& reg = server.metrics_registry();
  auto lookups = [&reg](const char* field) {
    return reg.counter("droplens_svc_field_lookups_total", {{"field", field}})
        .value();
  };
  EXPECT_EQ(lookups("routed"), 2u);
  EXPECT_EQ(lookups("drop"), 1u);
  EXPECT_EQ(lookups("rov"), 0u);
  obs::Histogram latency = reg.histogram("droplens_svc_request_latency_ns",
                                         obs::Registry::log2_bounds(39));
  uint64_t histogram_total = 0;
  for (size_t i = 0; i < latency.bucket_count(); ++i) {
    histogram_total += latency.bucket_value(i);
  }
  EXPECT_EQ(histogram_total, 3u);  // every served frame
}

TEST_F(ServiceWorldTest, TcpRoundtripMatchesLoopback) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  auto snap = svc::compile_snapshot(s, index, d, 9);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap);
  svc::EpollServer tcp(server, svc::TransportOptions{});
  ASSERT_GT(tcp.port(), 0);

  svc::TcpClientConnection conn("127.0.0.1", tcp.port(), svc::frame_size);
  svc::Client client(conn);
  svc::LoopbackConnection loop(server);
  svc::Client reference(loop);

  std::vector<svc::Query> batch;
  for (const net::Prefix& p : probe_prefixes(index)) {
    batch.push_back(svc::Query{d, p, svc::kAllFields});
  }
  EXPECT_EQ(client.query(batch), reference.query(batch));
  EXPECT_GE(server.stats().requests, 2u);
  tcp.stop();
  EXPECT_EQ(tcp.stats().accepted, 1u);
}

TEST_F(ServiceWorldTest, WhoisRidesTheSameTransport) {
  irr::WhoisServer whois(world_->irr, config_->window_begin + 60);
  svc::WhoisService service(whois);
  svc::EpollServer tcp(service, svc::TransportOptions{});

  svc::TcpClientConnection conn("127.0.0.1", tcp.port(),
                                svc::whois_response_size);
  // Query an origin that the generated world is guaranteed to register.
  std::string direct;
  net::Asn origin(0);
  for (const irr::Registration& reg : world_->irr.all_history()) {
    if (reg.live_on(config_->window_begin + 60)) {
      origin = reg.object.origin;
      break;
    }
  }
  direct = whois.handle("!gAS" + std::to_string(origin.value()));
  EXPECT_EQ(conn.roundtrip("!gAS" + std::to_string(origin.value()) + "\n"),
            direct);
  // The satellite fix, observed through the service path.
  EXPECT_EQ(conn.roundtrip("!gAS4294967296\n"), "F bad ASN\n");
  EXPECT_EQ(conn.roundtrip("!gASbanana\n"), "F bad ASN\n");

  // Loopback serves the same protocol.
  svc::LoopbackConnection loop(service);
  EXPECT_EQ(loop.roundtrip("!gASbanana\n"), "F bad ASN\n");
}

TEST(WhoisFraming, ResponseSizeDelimitsEveryFrameShape) {
  EXPECT_EQ(svc::whois_response_size(""), 0u);
  EXPECT_EQ(svc::whois_response_size("C"), 0u);
  EXPECT_EQ(svc::whois_response_size("C\n"), 2u);
  EXPECT_EQ(svc::whois_response_size("D\nC\n"), 2u);
  EXPECT_EQ(svc::whois_response_size("F bad ASN\n"), 10u);
  EXPECT_EQ(svc::whois_response_size("F bad"), 0u);
  std::string framed = "A5\nhelloC\n";
  EXPECT_EQ(svc::whois_response_size(framed), framed.size());
  EXPECT_EQ(svc::whois_response_size(framed.substr(0, 6)), 0u);
  EXPECT_THROW(svc::whois_response_size("Zmystery\n"), ParseError);
  EXPECT_THROW(svc::whois_response_size("A5\nhelloXX"), ParseError);
  EXPECT_THROW(svc::whois_response_size("Abanana\n"), ParseError);
}

TEST(WhoisFraming, OverlongLinesAreRejectedNotBuffered) {
  irr::Database db;
  irr::WhoisServer whois(db, net::Date::parse("2021-01-01"));
  svc::WhoisService service(whois);
  std::string line(svc::WhoisService::kMaxLine, 'x');
  EXPECT_THROW(service.message_size(line), ParseError);
  EXPECT_EQ(service.malformed_response(line), "F line too long\n");
  EXPECT_EQ(service.message_size("!gAS1\n"), 6u);
}

}  // namespace
}  // namespace droplens
