// The observability layer: registry interning and handle semantics, the
// no-op mode, histogram bucket mapping, the Prometheus renderer (golden
// output), the concurrent-hammer race (this binary's TSan gate), the
// retired binary ops answering kError while the server's counters reach
// /metrics, the pinned serving metric catalogue, and the cornerstone
// determinism contract: instrumentation never changes what the pipeline
// computes.
//
// The flight recorder rides in the same binary: pipeline spans as one
// "pipeline" trace each (outcome on exception, the inert mode, spans from
// four threads racing page renders), SpanContext cross-thread handoff (a
// second TSan gate), ring bounds and eviction, exemplar rendering, the
// structured logger's goldens and rate limiter, and the admin plane over
// real TCP — including the acceptance pins: one epoll request = one
// accept→read→serve→flush root trace on /tracez, a compile-on-miss inside
// a request landing as its own pipeline trace on /slowz, a delayed query
// captured on /slowz with its stage breakdown, and /healthz flipping to 503
// when the store is emptied.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/report.hpp"
#include "core/snapshot_cache.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "rir/registry.hpp"
#include "sim/fault_injector.hpp"
#include "sim/generator.hpp"
#include "stream/publisher.hpp"
#include "stream/wire.hpp"
#include "svc/admin_http.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"
#include "util/parse_report.hpp"
#include "util/thread_pool.hpp"

namespace droplens {
namespace {

TEST(Registry, HandlesShareCellsAndReacquisitionIsIdempotent) {
  obs::Registry reg;
  obs::Counter a = reg.counter("requests_total", {}, "help");
  obs::Counter b = reg.counter("requests_total");
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_TRUE(static_cast<bool>(a));
}

TEST(Registry, LabelsDistinguishSeries) {
  obs::Registry reg;
  obs::Counter drop = reg.counter("parsed", {{"feed", "drop"}});
  obs::Counter irr = reg.counter("parsed", {{"feed", "irr"}});
  drop.inc(7);
  irr.inc(2);
  EXPECT_EQ(drop.value(), 7u);
  EXPECT_EQ(irr.value(), 2u);
}

TEST(Registry, TypeAndBoundsMismatchesThrow) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1, 2}), std::logic_error);
  reg.histogram("h", {1, 2, 3});
  EXPECT_THROW(reg.histogram("h", {1, 2}), std::logic_error);
  EXPECT_NO_THROW(reg.histogram("h", {1, 2, 3}));
}

TEST(Registry, GaugeSetAddSub) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("depth");
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
}

TEST(Registry, NoOpHandlesCostNothingAndReadZero) {
  // Nothing installed: ambient acquisition yields inert handles.
  ASSERT_EQ(obs::installed(), nullptr);
  obs::Counter c = obs::counter("ghost_total");
  obs::Gauge g = obs::gauge("ghost_depth");
  obs::Histogram h = obs::histogram("ghost_ns", obs::Registry::log2_bounds(4));
  c.inc();
  g.set(42);
  h.observe(100);
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket_count(), 0u);
}

TEST(Registry, ScopedInstallRestoresPrevious) {
  obs::Registry outer;
  {
    obs::ScopedRegistry a(outer);
    EXPECT_EQ(obs::installed(), &outer);
    obs::Registry inner;
    {
      obs::ScopedRegistry b(inner);
      EXPECT_EQ(obs::installed(), &inner);
    }
    EXPECT_EQ(obs::installed(), &outer);
  }
  EXPECT_EQ(obs::installed(), nullptr);
}

TEST(Histogram, Log2BucketMappingMatchesBitWidth) {
  obs::Registry reg;
  obs::Histogram h =
      reg.histogram("lat", obs::Registry::log2_bounds(39));  // 40 buckets
  ASSERT_EQ(h.bucket_count(), 40u);
  // Bucket i counts values in [2^i, 2^(i+1)); 0 lands in bucket 0; values
  // at or past 2^39 land in the overflow bucket — exactly the engine's old
  // bit_width(ns)-1 histogram.
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe((uint64_t{1} << 39) - 1);
  h.observe(uint64_t{1} << 39);
  h.observe(~uint64_t{0});
  EXPECT_EQ(h.bucket_value(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket_value(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket_value(2), 1u);  // 4
  EXPECT_EQ(h.bucket_value(38), 1u);
  EXPECT_EQ(h.bucket_value(39), 2u);  // overflow
}

TEST(Histogram, LinearBounds) {
  std::vector<uint64_t> b = obs::Registry::linear_bounds(10, 3);
  EXPECT_EQ(b, (std::vector<uint64_t>{10, 20, 30}));
}

TEST(Registry, ConcurrentHammerLosesNothing) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kOps = 20000;
  obs::Counter shared = reg.counter("hammer_total");
  obs::Histogram hist = reg.histogram("hammer_ns", {10, 100, 1000});
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Half the threads re-acquire their handles mid-flight, racing the
      // interning path against recording and snapshotting.
      obs::Counter mine = reg.counter("hammer_total");
      obs::Histogram h = reg.histogram("hammer_ns", {10, 100, 1000});
      for (uint64_t i = 0; i < kOps; ++i) {
        mine.inc();
        h.observe(i % 2000);
        if (t % 2 == 0 && i % 4096 == 0) {
          mine = reg.counter("hammer_total");
        }
      }
    });
  }
  // Snapshot concurrently with the writers: must never tear or crash.
  for (int i = 0; i < 50; ++i) {
    (void)reg.snapshot();
    (void)obs::render_prometheus(reg);
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(shared.value(), kThreads * kOps);
  uint64_t total = 0;
  for (size_t i = 0; i < hist.bucket_count(); ++i) {
    total += hist.bucket_value(i);
  }
  EXPECT_EQ(total, kThreads * kOps);
}

TEST(Prometheus, GoldenPage) {
  obs::Registry reg;
  reg.counter("acme_requests_total", {}, "Requests served").inc(3);
  reg.counter("acme_parsed", {{"feed", "drop"}}).inc(9);
  reg.counter("acme_parsed", {{"feed", "irr"}}).inc(1);
  reg.gauge("acme_depth", {}, "Queue depth").set(-2);
  obs::Histogram h = reg.histogram("acme_lat", {1, 10}, {}, "Latency");
  h.observe(0);
  h.observe(5);
  h.observe(7);
  h.observe(100);
  const char* expected =
      "# HELP acme_depth Queue depth\n"
      "# TYPE acme_depth gauge\n"
      "acme_depth -2\n"
      "# HELP acme_lat Latency\n"
      "# TYPE acme_lat histogram\n"
      "acme_lat_bucket{le=\"1\"} 1\n"
      "acme_lat_bucket{le=\"10\"} 3\n"
      "acme_lat_bucket{le=\"+Inf\"} 4\n"
      "acme_lat_sum 112\n"
      "acme_lat_count 4\n"
      "# TYPE acme_parsed counter\n"
      "acme_parsed{feed=\"drop\"} 9\n"
      "acme_parsed{feed=\"irr\"} 1\n"
      "# HELP acme_requests_total Requests served\n"
      "# TYPE acme_requests_total counter\n"
      "acme_requests_total 3\n";
  EXPECT_EQ(obs::render_prometheus(reg), expected);
}

TEST(Prometheus, EscapesLabelValuesAndHelp) {
  obs::Registry reg;
  reg.counter("esc_total", {{"path", "a\\b\"c\nd"}}, "line\none").inc();
  std::string page = obs::render_prometheus(reg);
  EXPECT_NE(page.find("# HELP esc_total line\\none\n"), std::string::npos);
  EXPECT_NE(page.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

// Every span is one trace of op class "pipeline" whose one stage carries
// its name; a span opened inside another is a trace of its own.
TEST(Trace, EverySpanIsOnePipelineTrace) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  obs::FlightRecorder rec(opt);
  {
    obs::ScopedFlightRecorder scoped(rec);
    obs::Span outer("outer");
    obs::Span inner("inner");
  }
  EXPECT_EQ(rec.finished(), 2u);
  std::vector<obs::RequestTrace> traces = rec.recent("pipeline");
  ASSERT_EQ(traces.size(), 2u);
  // Oldest first: the inner span closes before the outer one.
  const char* names[] = {"inner", "outer"};
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].op, "pipeline");
    EXPECT_EQ(traces[i].outcome, "ok");
    ASSERT_EQ(traces[i].stages.size(), 1u);
    EXPECT_STREQ(traces[i].stages[0].name, names[i]);
  }
  EXPECT_GE(traces[1].total_ns, traces[0].total_ns);
  EXPECT_NE(rec.render_tracez().find("== op pipeline"), std::string::npos);
}

// A span left by an exception finishes "error" (a corrupt .dls load must
// not read ok on /slowz); one opened and closed while another exception
// unwinds still finishes "ok".
TEST(Trace, SpanLeftByExceptionFinishesError) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  obs::FlightRecorder rec(opt);
  obs::ScopedFlightRecorder scoped(rec);
  struct SpanInDestructor {
    ~SpanInDestructor() { obs::Span span("cleanup"); }
  };
  EXPECT_THROW(
      {
        SpanInDestructor cleanup;
        obs::Span span("svc.load_snapshot");
        throw std::runtime_error("corrupt file");
      },
      std::runtime_error);
  std::vector<obs::RequestTrace> traces = rec.recent("pipeline");
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_STREQ(traces[0].stages[0].name, "svc.load_snapshot");
  EXPECT_EQ(traces[0].outcome, "error");
  EXPECT_STREQ(traces[1].stages[0].name, "cleanup");
  EXPECT_EQ(traces[1].outcome, "ok");
}

TEST(Trace, NoRecorderMeansInertSpan) {
  ASSERT_EQ(obs::installed_flight_recorder(), nullptr);
  obs::FlightRecorder bystander;
  { obs::Span span("unobserved"); }
  EXPECT_EQ(bystander.finished(), 0u);
  EXPECT_EQ(bystander.render_tracez(), "") << "no op class was interned";
}

// The fold's TSan gate: four threads record spans into one recorder while
// a reader renders /tracez and /slowz. Every span interns the "pipeline"
// op class; the threads start together, so their first spans race to
// create it.
TEST(Trace, ConcurrentSpansRaceReaders) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  opt.recent_capacity = 16;
  obs::FlightRecorder rec(opt);
  obs::ScopedFlightRecorder scoped(rec);

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&rec, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)rec.render_tracez();
      (void)rec.render_slowz();
    }
  });
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("worker");
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(rec.finished(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(rec.recent("pipeline").size(), 16u);
}

TEST(DataQuality, ExportsGauges) {
  obs::Registry reg;
  core::DataQuality quality;
  util::ParseReport report("x.feed");
  report.add_parsed(2);
  report.add_error(1, "bad");
  quality.note_input(core::Feed::kDropFeed, report);
  quality.mark_day_unavailable(core::Feed::kRoas, net::Date(100));
  quality.export_metrics(reg, 30);
  EXPECT_EQ(reg.gauge("droplens_feed_days_total").value(), 30);
  EXPECT_EQ(
      reg.gauge("droplens_feed_days_degraded", {{"feed", "roas"}}).value(), 1);
  EXPECT_EQ(
      reg.gauge("droplens_feed_records_parsed_total", {{"feed", "drop"}})
          .value(),
      2);
  EXPECT_EQ(
      reg.gauge("droplens_feed_records_skipped_total", {{"feed", "drop"}})
          .value(),
      1);
  // Re-export refreshes rather than accumulates.
  quality.export_metrics(reg, 30);
  EXPECT_EQ(
      reg.gauge("droplens_feed_records_parsed_total", {{"feed", "drop"}})
          .value(),
      2);
}

TEST(ThreadPool, InstrumentsSubmissionAndCompletion) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  {
    util::ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.submit([i] { return i; }));
    }
    for (auto& f : futures) (void)f.get();
  }
  EXPECT_EQ(reg.counter("droplens_pool_tasks_submitted_total").value(), 20u);
  EXPECT_EQ(reg.counter("droplens_pool_tasks_completed_total").value(), 20u);
  EXPECT_EQ(reg.gauge("droplens_pool_queue_depth").value(), 0);
  obs::Histogram lat = reg.histogram("droplens_pool_task_latency_ns",
                                     obs::Registry::log2_bounds(39));
  uint64_t observed = 0;
  for (size_t i = 0; i < lat.bucket_count(); ++i) {
    observed += lat.bucket_value(i);
  }
  EXPECT_EQ(observed, 20u);
}

// Frame types 6/7 (a binary metrics op) are retired: the admin plane's
// /metrics is the one reader of the registry. A client still sending
// either gets a typed error back, counted as malformed, and the server's
// counters reach the page through the registry they share.
TEST(Service, RetiredMetricsOpIsAnUnexpectedFrame) {
  {
    svc::SnapshotStore history(svc::SnapshotStore::Config{});
    svc::Server server(history);
    svc::LoopbackConnection conn(server);
    for (const char type : {'\x06', '\x07'}) {
      std::string reply = conn.roundtrip(
          std::string("DL\x01") + type + std::string(4, '\0'));
      ASSERT_EQ(svc::decode_header(reply).type, svc::FrameType::kError);
      EXPECT_NE(svc::decode_error(svc::frame_payload(reply))
                    .find("unexpected frame type from client"),
                std::string::npos);
    }
    EXPECT_EQ(server.stats().malformed, 2u);
  }

  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  svc::LoopbackConnection conn(server);
  const svc::Query query{net::Date::parse("2021-01-01"),
                         net::Prefix::parse("192.0.2.0/24"), svc::kAllFields};
  const std::string reply = conn.roundtrip(svc::encode_query_request({query}));
  ASSERT_EQ(svc::decode_header(reply).type, svc::FrameType::kQueryResponse);

  svc::AdminHttpService admin(reg);
  const std::string page = admin.serve("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(page.find("# TYPE droplens_svc_requests_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("droplens_svc_request_latency_ns_bucket"),
            std::string::npos);
  EXPECT_NE(page.find("droplens_svc_requests_total 1\n"), std::string::npos)
      << page;
}

// Frame types 3/4 (a binary stats op) are retired too. A client still
// sending 3 gets a typed error back.
TEST(Service, RetiredStatsOpIsAnUnexpectedFrame) {
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  svc::LoopbackConnection conn(server);
  const std::string stats_request("DL\x01\x03\0\0\0\0", svc::kHeaderSize);
  std::string reply = conn.roundtrip(stats_request);
  ASSERT_EQ(svc::decode_header(reply).type, svc::FrameType::kError);
  EXPECT_NE(svc::decode_error(svc::frame_payload(reply))
                .find("unexpected frame type from client"),
            std::string::npos);
  EXPECT_EQ(server.stats().malformed, 1u);
}

TEST(Service, ServerPrefersInstalledRegistry) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  EXPECT_EQ(&server.metrics_registry(), &reg);
  svc::LoopbackConnection conn(server);
  (void)conn.roundtrip(svc::encode_query_request({}));
  EXPECT_EQ(reg.counter("droplens_svc_requests_total").value(), 1u);
}

/// One "name type {label keys}" line per registered family, in name order.
std::vector<std::string> catalogue_of(const obs::Registry& reg) {
  constexpr const char* kTypeNames[] = {"counter", "gauge", "histogram"};
  std::vector<std::string> catalogue;
  for (const obs::Registry::FamilySnapshot& f : reg.snapshot()) {
    std::set<std::string> key_sets;  // one per family: every series agrees
    for (const obs::Registry::SeriesSnapshot& series : f.series) {
      std::string keys;
      for (const auto& [key, value] : series.labels) {
        keys += (keys.empty() ? "" : ",") + key;
      }
      key_sets.insert(keys);
    }
    EXPECT_EQ(key_sets.size(), 1u) << f.name;
    catalogue.push_back(f.name + " " +
                        kTypeNames[static_cast<size_t>(f.type)] + " {" +
                        (key_sets.empty() ? "" : *key_sets.begin()) + "}");
  }
  return catalogue;
}

// The serving stack's series names, types and label keys, pinned so that a
// rename is a deliberate edit of this list rather than a silent break of
// every dashboard and alert scraping them.
TEST(Metrics, ServingCatalogueIsPinned) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  svc::SnapshotStore store(svc::SnapshotStore::Config{});
  svc::Server server(store);
  svc::TransportOptions o;
  o.name = "query";
  svc::EpollServer front(server, o);

  const std::vector<std::string> pinned = {
      "droplens_store_resident_days gauge {}",
      "droplens_svc_field_lookups_total counter {field}",
      "droplens_svc_malformed_total counter {}",
      "droplens_svc_queries_total counter {}",
      "droplens_svc_reloads_total counter {}",
      "droplens_svc_request_latency_ns histogram {}",
      "droplens_svc_requests_total counter {}",
      "droplens_svc_unavailable_dates_total counter {}",
      "droplens_transport_accept_errors_total counter {transport,listener}",
      "droplens_transport_accepted_total counter {transport,listener}",
      "droplens_transport_buffered_bytes gauge {transport,listener}",
      "droplens_transport_disconnects_total counter "
      "{transport,listener,reason}",
      "droplens_transport_inflight gauge {transport,listener}",
      "droplens_transport_open_connections gauge {transport,listener}",
      "droplens_transport_overload_rejects_total counter "
      "{transport,listener}",
      "droplens_transport_shed_total counter {transport,listener,class}",
  };
  EXPECT_EQ(catalogue_of(reg), pinned);
}

// The engine's families, pinned the same way: the pool's, the one cache
// counter (every lookup computes its set, so there is no hit to count) and
// the compile count.
TEST(Metrics, EngineCatalogueIsPinned) {
  const sim::ScenarioConfig config = sim::ScenarioConfig::small();
  const std::unique_ptr<sim::World> world = sim::generate(config);
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  util::ThreadPool pool(2);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  study.pool = &pool;
  study.snapshots = &cache;
  const core::DropIndex index = core::DropIndex::build(study);
  (void)svc::compile_snapshot(study, index, config.window_begin + 30, 1);

  const std::vector<std::string> pinned = {
      "droplens_cache_misses_total counter {}",
      "droplens_pool_queue_depth gauge {}",
      "droplens_pool_task_latency_ns histogram {}",
      "droplens_pool_tasks_completed_total counter {}",
      "droplens_pool_tasks_submitted_total counter {}",
      "droplens_svc_snapshot_compiles_total counter {}",
  };
  EXPECT_EQ(catalogue_of(reg), pinned);
}

// The stream's families, pinned the same way: everything a follower
// registers when it ingests an event, compacts the live state and answers
// one subscribe request.
TEST(Metrics, StreamCatalogueIsPinned) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  stream::AlarmMonitor::Config alarms;
  alarms.window_begin = net::Date::parse("2019-06-01");
  alarms.window_end = net::Date::parse("2022-04-01");
  stream::Publisher publisher(alarms);
  publisher.seed_rir(rir::Registry{});
  stream::Event announce;
  announce.type = stream::EventType::kBgpAnnounce;
  announce.prefix = net::Prefix::parse("10.0.0.0/8");
  announce.date = alarms.window_begin;
  announce.value = 64500;
  publisher.ingest(announce);
  (void)publisher.compact(announce.date, 1);
  (void)publisher.handle_subscribe(
      stream::encode_subscribe({.from_seq = 0, .max_events = 16}));

  const std::vector<std::string> pinned = {
      "droplens_stream_alarms_total counter {kind}",
      "droplens_stream_compactions_total counter {}",
      "droplens_stream_deltas_total counter {}",
      "droplens_stream_events_applied_total counter {}",
      "droplens_stream_events_ingested_total counter {}",
      "droplens_stream_events_rejected_total counter {}",
      "droplens_stream_head_seq gauge {}",
      "droplens_stream_ingest_alarm_latency_ns histogram {}",
      "droplens_stream_ingest_lag_seconds gauge {}",
      "droplens_stream_resets_total counter {}",
  };
  EXPECT_EQ(catalogue_of(reg), pinned);
}

// The cornerstone contract: observability never changes analysis output.
// The same study renders byte-identically with no registry/recorder, and
// with both installed and every span sampled — across thread counts.
TEST(Determinism, ReportUnchangedByInstrumentation) {
  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  core::ReportOptions options;
  options.threads = 1;

  std::ostringstream plain;
  core::write_report(plain, study, options);

  obs::FlightRecorder::Options every;
  every.sample_period = 1;
  auto observed = [&study, &every](uint32_t threads) {
    obs::Registry reg;
    obs::FlightRecorder rec(every);
    obs::ScopedRegistry sr(reg);
    obs::ScopedFlightRecorder srec(rec);
    core::ReportOptions traced_options;
    traced_options.threads = threads;
    std::ostringstream out;
    core::write_report(out, study, traced_options);
    EXPECT_GT(rec.finished(), 0u);
    return out.str();
  };
  EXPECT_EQ(plain.str(), observed(1));
  EXPECT_EQ(plain.str(), observed(4));
}

// ---------------------------------------------------------------------------
// SpanContext + FlightRecorder: the request-lifecycle layer.

TEST(FlightRecorder, InertContextsCostNothingAndRecordNothing) {
  obs::SpanContext inert;
  EXPECT_FALSE(static_cast<bool>(inert));
  inert.stage("decode");  // all no-ops
  inert.stage_end();
  inert.finish("ok");

  // No recorder installed: begin() through a TraceBinding is inert too.
  ASSERT_EQ(obs::installed_flight_recorder(), nullptr);
  svc::TraceBinding unbound("binary");
  EXPECT_FALSE(static_cast<bool>(unbound));
  obs::SpanContext ctx = unbound.begin();
  EXPECT_FALSE(static_cast<bool>(ctx));
}

TEST(FlightRecorder, CapturesStagesOutcomeAndOrder) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;  // every request into the recent ring
  obs::FlightRecorder rec(opt);
  const uint16_t op = rec.op_class("binary");

  obs::SpanContext ctx = rec.begin(op);
  ASSERT_TRUE(static_cast<bool>(ctx));
  EXPECT_TRUE(ctx.sampled());
  ctx.stage("accept");
  ctx.stage("read");
  ctx.stage("serve");
  ctx.stage("flush");
  ctx.finish("ok");
  EXPECT_FALSE(static_cast<bool>(ctx)) << "a finished context is inert";

  ASSERT_EQ(rec.finished(), 1u);
  std::vector<obs::RequestTrace> recent = rec.recent("binary");
  ASSERT_EQ(recent.size(), 1u);
  const obs::RequestTrace& t = recent[0];
  EXPECT_EQ(t.op, "binary");
  EXPECT_EQ(t.outcome, "ok");
  EXPECT_GT(t.id, 0u);
  ASSERT_EQ(t.stages.size(), 4u);
  EXPECT_STREQ(t.stages[0].name, "accept");
  EXPECT_STREQ(t.stages[1].name, "read");
  EXPECT_STREQ(t.stages[2].name, "serve");
  EXPECT_STREQ(t.stages[3].name, "flush");
  // Stages are sequential: each opens at or after the previous one.
  for (size_t i = 1; i < t.stages.size(); ++i) {
    EXPECT_GE(t.stages[i].start_ns, t.stages[i - 1].start_ns);
  }
  EXPECT_NE(rec.render_tracez().find("op=binary"), std::string::npos);
}

TEST(FlightRecorder, RingsAreBoundedAndSlowRingKeepsTheSlowest) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  opt.recent_capacity = 4;
  opt.slow_capacity = 2;
  obs::FlightRecorder rec(opt);
  const uint16_t op = rec.op_class("binary");

  // Two genuinely slow requests among a crowd of fast ones: the slow ring
  // must keep exactly those two, whatever the sampler does.
  for (int i = 0; i < 12; ++i) {
    obs::SpanContext ctx = rec.begin(op);
    ctx.stage("serve");
    if (i == 3 || i == 7) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ctx.finish("ok");
  }
  EXPECT_EQ(rec.finished(), 12u);
  EXPECT_EQ(rec.recent("binary").size(), 4u) << "recent ring must be bounded";

  std::vector<obs::RequestTrace> slow = rec.slowest("binary");
  ASSERT_EQ(slow.size(), 2u) << "slow ring must be bounded";
  EXPECT_GE(slow[0].total_ns, slow[1].total_ns) << "slowest-first order";
  EXPECT_GE(slow[1].total_ns, 10'000'000u)
      << "the delayed requests must have evicted the fast ones";
}

TEST(FlightRecorder, StageOverflowIsCountedNotRecorded) {
  obs::Registry reg;
  obs::ScopedRegistry sr(reg);
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  obs::FlightRecorder rec(opt);
  const uint16_t op = rec.op_class("binary");
  obs::SpanContext ctx = rec.begin(op);
  for (size_t i = 0; i < obs::SpanContext::kMaxStages + 3; ++i) {
    ctx.stage("s");
  }
  ctx.finish("ok");
  std::vector<obs::RequestTrace> recent = rec.recent("binary");
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].stages.size(), obs::SpanContext::kMaxStages);
}

TEST(FlightRecorder, AbandonedContextSubmitsItself) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  obs::FlightRecorder rec(opt);
  const uint16_t op = rec.op_class("whois");
  {
    obs::SpanContext ctx = rec.begin(op);
    ctx.stage("read");
    // dropped without finish(): a closed connection mid-request
  }
  std::vector<obs::RequestTrace> recent = rec.recent("whois");
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].outcome, "abandoned");
}

// The TSan gate for the explicit-context model: contexts begin on one
// thread, hop to workers (the epoll callback / ThreadPool shape), gain
// stages there, and finish — all racing against readers of the rings.
TEST(FlightRecorder, CrossThreadHandoffRace) {
  obs::FlightRecorder::Options opt;
  opt.sample_period = 2;
  opt.recent_capacity = 8;
  opt.slow_capacity = 4;
  obs::FlightRecorder rec(opt);
  const uint16_t op = rec.op_class("xthread");

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rec, op] {
      for (int i = 0; i < kPerProducer; ++i) {
        obs::SpanContext ctx = rec.begin(op);
        ctx.stage("read");
        // The handoff under test: move the armed context into another
        // thread, exactly like parking it on a connection object.
        std::thread worker([moved = std::move(ctx)]() mutable {
          moved.stage("serve");
          moved.finish("ok");
        });
        worker.join();
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&rec, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)rec.recent("xthread");
      (void)rec.render_slowz();
    }
  });
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(rec.finished(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_LE(rec.recent("xthread").size(), 8u);
}

TEST(FlightRecorder, ExemplarsAttachToDurationBuckets) {
  obs::Registry reg;
  obs::ScopedRegistry sr(reg);
  obs::FlightRecorder::Options opt;
  opt.sample_period = 1;
  obs::FlightRecorder rec(opt);
  const uint16_t op = rec.op_class("binary");
  obs::SpanContext ctx = rec.begin(op);
  ctx.stage("serve");
  ctx.finish("ok");

  std::vector<obs::RequestTrace> recent = rec.recent("binary");
  ASSERT_EQ(recent.size(), 1u);
  const uint64_t id = recent[0].id;

  // The exemplar renders OpenMetrics-style on the owning bucket line:
  //   ..._bucket{op="binary",le="..."} 1 # {trace_id="N"} VALUE TS
  std::string page = obs::render_prometheus(reg, &rec);
  const std::string needle = " # {trace_id=\"" + std::to_string(id) + "\"} ";
  size_t at = page.find(needle);
  ASSERT_NE(at, std::string::npos) << page;
  size_t line_start = page.rfind('\n', at);
  line_start = line_start == std::string::npos ? 0 : line_start + 1;
  std::string line = page.substr(line_start, page.find('\n', at) - line_start);
  EXPECT_NE(line.find("droplens_request_duration_ns_bucket"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("op=\"binary\""), std::string::npos) << line;
  // Without the source, the same registry renders a plain page.
  EXPECT_EQ(obs::render_prometheus(reg).find("trace_id"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured logger.

namespace logtest {

struct Capture {
  obs::Logger* logger;
  std::vector<std::string> lines;
  explicit Capture(obs::Logger& l, uint64_t fixed_ns) : logger(&l) {
    l.set_clock([fixed_ns] { return fixed_ns; });
    l.set_sink([this](std::string_view line) {
      lines.emplace_back(line);
    });
  }
};

}  // namespace logtest

TEST(Log, LogfmtGolden) {
  obs::Logger::Options opt;
  opt.level = obs::LogLevel::kDebug;
  obs::Logger logger(opt);
  // 123.456s after the epoch: a fully pinned timestamp.
  logtest::Capture cap(logger, 123'456'000'000ull);
  static obs::LogSite site{"src/example/daemon.cpp", 42};
  logger.log(obs::LogLevel::kInfo, site, "bind failed",
             {{"port", "8053"}, {"reason", "address in use"}});
  ASSERT_EQ(cap.lines.size(), 1u);
  EXPECT_EQ(cap.lines[0],
            "ts=1970-01-01T00:02:03.456Z level=info site=daemon.cpp:42 "
            "msg=\"bind failed\" port=8053 reason=\"address in use\"");
}

TEST(Log, JsonGoldenEscapesHostileValues) {
  obs::Logger::Options opt;
  opt.level = obs::LogLevel::kDebug;
  opt.format = obs::LogFormat::kJson;
  obs::Logger logger(opt);
  logtest::Capture cap(logger, 123'456'000'000ull);
  static obs::LogSite site{"daemon.cpp", 7};
  logger.log(obs::LogLevel::kWarn, site, "weird \"input\"\nline",
             {{"key", std::string("a\tb\x01") + "c"}});
  ASSERT_EQ(cap.lines.size(), 1u);
  EXPECT_EQ(cap.lines[0],
            "{\"ts\":\"1970-01-01T00:02:03.456Z\",\"level\":\"warn\","
            "\"site\":\"daemon.cpp:7\",\"msg\":\"weird \\\"input\\\"\\nline\","
            "\"key\":\"a\\tb\\u0001c\"}");
}

TEST(Log, LevelGateAndParsers) {
  obs::Logger::Options opt;
  opt.level = obs::LogLevel::kWarn;
  obs::Logger logger(opt);
  logtest::Capture cap(logger, 1);
  static obs::LogSite site{"f.cpp", 1};
  logger.log(obs::LogLevel::kInfo, site, "below the gate");
  logger.log(obs::LogLevel::kError, site, "above the gate");
  ASSERT_EQ(cap.lines.size(), 1u);
  EXPECT_NE(cap.lines[0].find("above the gate"), std::string::npos);
  logger.set_level(obs::LogLevel::kDebug);
  logger.log(obs::LogLevel::kDebug, site, "now visible");
  EXPECT_EQ(cap.lines.size(), 2u);

  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("warning"), obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::parse_log_level("loud").has_value());
  EXPECT_EQ(obs::parse_log_format("json"), obs::LogFormat::kJson);
  EXPECT_FALSE(obs::parse_log_format("xml").has_value());
}

TEST(Log, RateLimiterSuppressesAndAnnotates) {
  obs::Logger::Options opt;
  opt.level = obs::LogLevel::kDebug;
  opt.site_interval_ns = 1'000'000'000;  // 1/s after the burst
  opt.site_burst = 2;
  obs::Logger logger(opt);
  uint64_t now = 1'000'000'000ull;
  logger.set_clock([&now] { return now; });
  std::vector<std::string> lines;
  logger.set_sink([&lines](std::string_view l) { lines.emplace_back(l); });

  static obs::LogSite site{"hot.cpp", 9};
  for (int i = 0; i < 10; ++i) {
    logger.log(obs::LogLevel::kError, site, "hot path");
  }
  // GCRA with burst b admits b+1 at one instant, then throttles.
  EXPECT_EQ(lines.size(), 3u);
  EXPECT_EQ(logger.suppressed(), 7u);

  // Advance past the backlog: the next admitted record carries the count.
  now += 20'000'000'000ull;
  logger.log(obs::LogLevel::kError, site, "hot path");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines.back().find("suppressed=7"), std::string::npos)
      << lines.back();
}

TEST(Log, LogzRingIsBoundedAndOldestFirst) {
  obs::Logger::Options opt;
  opt.level = obs::LogLevel::kDebug;
  opt.ring_capacity = 3;
  opt.site_interval_ns = 0;  // no limiting; exercise the ring alone
  obs::Logger logger(opt);
  logger.set_clock([] { return uint64_t{1}; });
  logger.set_sink([](std::string_view) {});
  static obs::LogSite site{"r.cpp", 1};
  for (int i = 0; i < 5; ++i) {
    logger.log(obs::LogLevel::kInfo, site, "record " + std::to_string(i));
  }
  std::string page = logger.render_logz();
  EXPECT_EQ(page.find("record 0"), std::string::npos) << "ring must evict";
  EXPECT_EQ(page.find("record 1"), std::string::npos);
  size_t r2 = page.find("record 2");
  size_t r4 = page.find("record 4");
  ASSERT_NE(r2, std::string::npos);
  ASSERT_NE(r4, std::string::npos);
  EXPECT_LT(r2, r4) << "oldest first";
  EXPECT_NE(page.find("emitted=5"), std::string::npos) << page;
}

// ---------------------------------------------------------------------------
// The admin plane.

namespace admintest {

/// Response framer: head plus its declared Content-Length body.
size_t http_framer(std::string_view b) {
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
}

std::string body_of(const std::string& response) {
  size_t head = response.find("\r\n\r\n");
  return head == std::string::npos ? std::string() : response.substr(head + 4);
}

}  // namespace admintest

TEST(AdminPlane, HeadMatchesGetHeadersAndCarriesNoBody) {
  obs::Registry reg;
  reg.counter("droplens_admin_test_total", {}, "help").inc();
  svc::AdminHttpService admin(reg);

  std::string get = admin.serve("GET /metrics HTTP/1.1\r\n\r\n");
  std::string head = admin.serve("HEAD /metrics HTTP/1.1\r\n\r\n");
  const std::string get_body = admintest::body_of(get);
  EXPECT_FALSE(get_body.empty());
  EXPECT_TRUE(admintest::body_of(head).empty()) << "HEAD must carry no body";
  // Identical headers, including the Content-Length the GET body would have.
  EXPECT_EQ(get.substr(0, get.find("\r\n\r\n")),
            head.substr(0, head.find("\r\n\r\n")));
  EXPECT_NE(head.find("Content-Length: " + std::to_string(get_body.size())),
            std::string::npos);
}

TEST(AdminPlane, NonGetHeadGets405WithAllow) {
  obs::Registry reg;
  svc::AdminHttpService admin(reg);
  for (const char* method : {"POST", "PUT", "DELETE", "PATCH"}) {
    std::string r = admin.serve(std::string(method) +
                                " /healthz HTTP/1.1\r\n\r\n");
    EXPECT_NE(r.find("405 Method Not Allowed"), std::string::npos) << method;
    EXPECT_NE(r.find("Allow: GET, HEAD"), std::string::npos) << method;
    EXPECT_NE(r.find("Content-Length: "), std::string::npos) << method;
  }
}

TEST(AdminPlane, RoutesServeOverTcp) {
  obs::Registry reg;
  obs::ScopedRegistry sr(reg);
  obs::FlightRecorder::Options ropt;
  ropt.sample_period = 1;
  obs::FlightRecorder rec(ropt);
  obs::Logger logger;
  logger.set_sink([](std::string_view) {});

  // One captured trace and one log record so every page has content.
  const uint16_t op = rec.op_class("binary");
  obs::SpanContext ctx = rec.begin(op);
  ctx.stage("serve");
  ctx.finish("ok");
  static obs::LogSite site{"admin.cpp", 1};
  logger.log(obs::LogLevel::kInfo, site, "hello admin");

  svc::AdminHttpService::Options aopt;
  aopt.registry = &reg;
  aopt.exemplars = &rec;
  aopt.recorder = &rec;
  aopt.logger = &logger;
  aopt.build_info = "droplens-test build";
  svc::AdminHttpService admin(aopt);
  admin.add_status_section("extra", [] { return std::string("k v\n"); });

  svc::EpollServer tcp(admin, svc::TransportOptions{});
  svc::TcpClientConnection conn("127.0.0.1", tcp.port(),
                                admintest::http_framer);

  std::string metrics = conn.roundtrip("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("droplens_request_duration_ns_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.find("trace_id"), std::string::npos)
      << "exemplars must reach the wire";

  std::string statusz = conn.roundtrip("GET /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(statusz.find("droplens-test build"), std::string::npos);
  EXPECT_NE(statusz.find("uptime_seconds "), std::string::npos);
  EXPECT_NE(statusz.find("open_fds "), std::string::npos);
  EXPECT_NE(statusz.find("== extra =="), std::string::npos);

  std::string tracez = conn.roundtrip("GET /tracez HTTP/1.1\r\n\r\n");
  EXPECT_NE(tracez.find("op=binary"), std::string::npos);
  std::string slowz = conn.roundtrip("GET /slowz HTTP/1.1\r\n\r\n");
  EXPECT_NE(slowz.find("op=binary"), std::string::npos);
  std::string logz = conn.roundtrip("GET /logz HTTP/1.1\r\n\r\n");
  EXPECT_NE(logz.find("hello admin"), std::string::npos);

  std::string index = conn.roundtrip("GET / HTTP/1.1\r\n\r\n");
  EXPECT_NE(index.find("/healthz"), std::string::npos);
  std::string missing = conn.roundtrip("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);
  // Query strings are routing-irrelevant.
  std::string q = conn.roundtrip("GET /healthz?verbose=1 HTTP/1.1\r\n\r\n");
  EXPECT_NE(q.find("200 OK"), std::string::npos);
}

// The acceptance pin: /healthz answers 200 while the store serves, and
// flips to 503 — naming the failing check — once the store is emptied by
// damaging its backing files (sim::FaultInjector) and rescanning.
TEST(AdminPlane, HealthzFlipsTo503WhenStoreIsEmptied) {
  namespace fs = std::filesystem;
  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  util::ThreadPool pool(2);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  study.pool = &pool;
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);

  fs::path dir = fs::temp_directory_path() / "droplens_admin_healthz";
  fs::remove_all(dir);
  fs::create_directories(dir);
  svc::SnapshotStore::Config sc;
  sc.dir = dir.string();
  svc::SnapshotStore store(sc, &study, &index);
  net::Date d = config.window_begin + 30;
  ASSERT_NE(store.get(d), nullptr);
  ASSERT_EQ(store.resident_count(), 1u);

  obs::Registry reg;
  svc::AdminHttpService::Options aopt;
  aopt.registry = &reg;
  svc::AdminHttpService admin(aopt);
  admin.add_health_check("store", [&store] {
    return store.resident_count() > 0
               ? std::nullopt
               : std::optional<std::string>("no resident days");
  });

  svc::EpollServer tcp(admin, svc::TransportOptions{});
  svc::TcpClientConnection conn("127.0.0.1", tcp.port(),
                                admintest::http_framer);
  std::string healthy = conn.roundtrip("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos);
  EXPECT_NE(admintest::body_of(healthy).find("ok"), std::string::npos);

  // Damage the backing file (deterministic corruption) and rescan: the
  // day's stamp no longer matches, residency drops to zero.
  sim::FaultInjector inj(7);
  std::string path = store.path_for(d);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::string damaged = inj.truncate(inj.flip_bits(bytes));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  out.close();
  store.rescan();
  ASSERT_EQ(store.resident_count(), 0u);

  std::string sick = conn.roundtrip("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(sick.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(admintest::body_of(sick).find("store: no resident days"),
            std::string::npos);
  fs::remove_all(dir);
}

// The acceptance pin: one request through the epoll transport produces one
// root trace spanning accept→read→serve→flush, visible on /tracez.
TEST(AdminPlane, EpollRequestProducesOneRootTrace) {
  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);
  net::Date d = config.window_begin + 30;

  obs::Registry reg;
  obs::ScopedRegistry sr(reg);
  obs::FlightRecorder::Options ropt;
  ropt.sample_period = 1;
  obs::FlightRecorder rec(ropt);
  obs::ScopedFlightRecorder srec(rec);

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(svc::compile_snapshot(study, index, d, 1));
  svc::TransportOptions o;
  o.name = "binary";
  svc::EpollServer epoll_srv(server, o);  // binding resolves the recorder

  svc::TcpClientConnection conn("127.0.0.1", epoll_srv.port(),
                                svc::frame_size);
  std::vector<svc::Query> batch{
      svc::Query{d, net::Prefix::parse("10.0.0.0/8"), svc::kAllFields}};
  std::string reply = conn.roundtrip(svc::encode_query_request(batch));
  ASSERT_FALSE(reply.empty());

  // The trace finishes when the flush drains — poll briefly for it.
  std::vector<obs::RequestTrace> recent;
  for (int spin = 0; spin < 200; ++spin) {
    recent = rec.recent("binary");
    if (!recent.empty() && recent.back().outcome == "ok") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(recent.size(), 1u) << "one request = one root trace";
  const obs::RequestTrace& t = recent[0];
  EXPECT_EQ(t.outcome, "ok");
  std::vector<std::string> names;
  for (const obs::RequestTrace::Stage& s : t.stages) names.push_back(s.name);
  auto has = [&names](const char* n) {
    for (const std::string& s : names) {
      if (s == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("accept")) << rec.render_tracez();
  EXPECT_TRUE(has("read")) << rec.render_tracez();
  EXPECT_TRUE(has("serve")) << rec.render_tracez();
  EXPECT_TRUE(has("flush")) << rec.render_tracez();
  // The Server's own marks ride in the same root trace.
  EXPECT_TRUE(has("decode")) << rec.render_tracez();
  EXPECT_TRUE(has("answer")) << rec.render_tracez();
  EXPECT_NE(rec.render_tracez().find("op=binary"), std::string::npos);
}

// The acceptance pin, in droplensd's shape: a query for a date the store
// has not compiled yet is one "binary" trace, and the compile-on-miss
// inside its answer stage is a "pipeline" trace of its own on /slowz.
TEST(AdminPlane, StoreMissInsideRequestIsAPipelineTrace) {
  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);
  net::Date d = config.window_begin + 30;

  obs::Registry reg;
  obs::ScopedRegistry sr(reg);
  obs::FlightRecorder::Options ropt;
  ropt.sample_period = 1;
  obs::FlightRecorder rec(ropt);
  obs::ScopedFlightRecorder srec(rec);

  svc::SnapshotStore store(svc::SnapshotStore::Config{}, &study, &index);
  svc::Server server(store);
  svc::TransportOptions o;
  o.name = "binary";
  svc::EpollServer epoll_srv(server, o);

  svc::TcpClientConnection conn("127.0.0.1", epoll_srv.port(),
                                svc::frame_size);
  std::vector<svc::Query> batch{
      svc::Query{d, net::Prefix::parse("10.0.0.0/8"), svc::kAllFields}};
  std::string reply = conn.roundtrip(svc::encode_query_request(batch));
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(store.stats().compiles, 1u);

  std::vector<obs::RequestTrace> requests;
  for (int spin = 0; spin < 200; ++spin) {
    requests = rec.recent("binary");
    if (!requests.empty() && requests.back().outcome == "ok") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(requests.size(), 1u) << rec.render_tracez();
  // Pipeline span names are dotted (layer.stage); request stages are not.
  for (const obs::RequestTrace::Stage& s : requests[0].stages) {
    EXPECT_EQ(std::string_view(s.name).find('.'), std::string_view::npos)
        << s.name;
  }

  std::vector<obs::RequestTrace> pipeline = rec.slowest("pipeline");
  ASSERT_EQ(pipeline.size(), 1u) << rec.render_slowz();
  ASSERT_EQ(pipeline[0].stages.size(), 1u);
  EXPECT_STREQ(pipeline[0].stages[0].name, "svc.compile_snapshot");
  EXPECT_EQ(pipeline[0].outcome, "ok");
  EXPECT_LE(pipeline[0].total_ns, requests[0].total_ns)
      << "the compile ran inside the request";
  EXPECT_NE(obs::render_prometheus(reg).find(
                "droplens_requests_total{op=\"pipeline\",outcome=\"ok\"} 1"),
            std::string::npos);
}

namespace admintest {

/// A service with a deliberate stall, for the /slowz acceptance pin.
class DelayedEchoService : public svc::Service {
 public:
  size_t message_size(std::string_view buffer) const override {
    size_t pos = buffer.find('\n');
    return pos == std::string_view::npos ? 0 : pos + 1;
  }
  std::string serve(std::string_view message) override {
    obs::SpanContext inert;
    return serve(message, inert);
  }
  std::string serve(std::string_view message,
                    obs::SpanContext& ctx) override {
    ctx.stage("stall");
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ctx.stage_end();
    return "echo:" + std::string(message);
  }
  std::string malformed_response(std::string_view) override {
    return "bad\n";
  }
};

}  // namespace admintest

// The acceptance pin: an artificially delayed query lands on /slowz with
// its per-stage breakdown.
TEST(AdminPlane, SlowzCapturesDelayedQueryWithStageBreakdown) {
  obs::Registry reg;
  obs::ScopedRegistry sr(reg);
  obs::FlightRecorder rec;  // default 1/1024 sampling: slowness still lands
  obs::ScopedFlightRecorder srec(rec);

  admintest::DelayedEchoService service;
  svc::TransportOptions o;
  o.name = "query";
  svc::EpollServer epoll_srv(service, o);
  svc::TcpClientConnection conn("127.0.0.1", epoll_srv.port(),
                                [](std::string_view b) {
                                  size_t pos = b.find('\n');
                                  return pos == std::string_view::npos
                                             ? size_t{0}
                                             : pos + 1;
                                });
  EXPECT_EQ(conn.roundtrip("slow one\n"), "echo:slow one\n");

  std::vector<obs::RequestTrace> slow;
  for (int spin = 0; spin < 200; ++spin) {
    slow = rec.slowest("query");
    if (!slow.empty() && slow[0].outcome == "ok") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(slow.empty())
      << "slowness is judged on every request, sampled or not";
  const obs::RequestTrace& t = slow[0];
  EXPECT_GE(t.total_ns, 25'000'000u);
  bool has_stall = false;
  for (const obs::RequestTrace::Stage& s : t.stages) {
    if (std::string_view(s.name) == "stall") {
      has_stall = true;
      EXPECT_GE(s.dur_ns, 20'000'000u) << "the stall dominates its stage";
    }
  }
  EXPECT_TRUE(has_stall) << rec.render_slowz();
  std::string page = rec.render_slowz();
  EXPECT_NE(page.find("op=query"), std::string::npos);
  EXPECT_NE(page.find("stall"), std::string::npos);
}

}  // namespace
}  // namespace droplens
