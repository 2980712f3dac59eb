// droplensd: the prefix-intelligence query service as a TCP daemon.
//
// Generates a world and serves the WHOLE study window from one process:
// the server fronts a SnapshotStore, so any query date — and the range op
// spanning [d0, d1] — resolves to its own day's snapshot (resident, mmap-
// loaded, delta-patched, or compiled on miss). Two protocols ride the same
// transport core: the binary query protocol (svc::Client speaks it) and
// IRRd-style whois for the IRR view. SIGHUP rescans the snapshot directory
// incrementally (unchanged resident days stay mapped); SIGINT/SIGTERM shut
// down cleanly.
//
//   $ ./droplensd [--small] [--seed=N] [--port=P] [--whois-port=P]
//                 [--admin-port=P] [--threads=N] [--date-offset=DAYS]
//                 [--snapshot-dir=PATH] [--max-resident=N] [--max-conns=N]
//                 [--idle-timeout-ms=MS] [--max-inflight=N]
//                 [--follow[=DAYS_PER_SEC]] [--compact-every=DAYS]
//                 [--log-level=debug|info|warn|error]
//                 [--log-format=logfmt|json]
//
// An unknown flag (the retired --transport= and --metrics-port= too), or a
// value that is not a whole number in its type's range (ports 0-65535;
// --follow= takes any non-negative number), prints the usage line and
// exits 2 before the world is generated.
//
// Then, from another terminal:  printf '!gAS64500\n' | nc 127.0.0.1 4343
// With --admin-port=P the admin plane serves the operator's view over
// plain HTTP. It is the one place the daemon's counters are shown:
//   curl http://127.0.0.1:P/metrics    Prometheus exposition (+ exemplars)
//   curl http://127.0.0.1:P/healthz    200 ok / 503 with per-check reasons
//   curl http://127.0.0.1:P/statusz    build, uptime, fds, store + stream
//   curl http://127.0.0.1:P/tracez     recent sampled request traces
//   curl http://127.0.0.1:P/slowz      slowest requests with stage splits
//   curl http://127.0.0.1:P/logz       recent log records + suppression
//
// Every front runs on the hardened epoll transport (a fixed pool of event
// threads; see svc/epoll_transport.hpp). --max-conns caps concurrent
// connections per listener (excess accepts get a typed overload reply),
// --idle-timeout-ms bounds quiet connections and times a partial message
// from its first byte (so slowloris drips are cut too), and --max-inflight
// turns on load shedding: bulk ops shed first, queries next, the admin
// plane last, so observability survives overload. All three fronts
// (binary, whois, admin HTTP) share the same limits; every limit, shed,
// and disconnect reason is a droplens_transport_* metric.
//
// With --follow the daemon goes live: a follower thread lowers the world
// into the canonical event stream (sim::EventReplayer), fast-forwards the
// pre-window history, then paces through the study window at DAYS_PER_SEC
// (default 50; 0 = as fast as possible), feeding every event through the
// stream::Publisher — live Applier state, online alarms, delta log. Every
// --compact-every days (default 7) the live state is compacted into an
// immutable snapshot and published as the serving head, so queries for the
// current day hit the live head while historical dates still resolve
// through the store. Subscribers (svc::Client + stream::Subscriber) follow
// the session with serial-numbered delta frames.
//
// With --snapshot-dir=PATH snapshots persist as `.dls` files — keyframes
// or deltas, see svc/snapshot_io.hpp: the first run compiles and saves,
// every restart mmaps back instead of recompiling, and `snapshot_tool
// delta` can re-encode the directory as patch chains. --max-resident=N
// bounds how many days stay materialized at once (LRU beyond it).
// Snapshot versions come from the SnapshotStore's monotonic counter, so no
// two artifacts ever share one.
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "irr/whois.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "sim/event_replayer.hpp"
#include "sim/generator.hpp"
#include "stream/publisher.hpp"
#include "svc/admin_http.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"
#include "svc/whois_service.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace droplens;

namespace {

// Signal handlers may only touch lock-free state; the main loop polls.
volatile std::sig_atomic_t g_reload = 0;
volatile std::sig_atomic_t g_stop = 0;

void on_sighup(int) { g_reload = 1; }
void on_sigterm(int) { g_stop = 1; }

int usage() {
  DLOG_ERROR(
      "usage: droplensd [--small] [--seed=N] [--port=P] [--whois-port=P] "
      "[--admin-port=P] [--threads=N] [--date-offset=DAYS] "
      "[--snapshot-dir=PATH] [--max-resident=N] [--max-conns=N] "
      "[--idle-timeout-ms=MS] [--max-inflight=N] [--follow[=DAYS_PER_SEC]] "
      "[--compact-every=DAYS] [--log-level=debug|info|warn|error] "
      "[--log-format=logfmt|json]");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  uint64_t seed = 0;
  uint16_t port = 4242;
  uint16_t whois_port = 4343;
  bool admin = false;
  uint16_t admin_port = 0;
  unsigned threads = util::ThreadPool::default_thread_count();
  int32_t date_offset = 60;
  std::string snapshot_dir;
  size_t max_resident = 16;
  size_t max_conns = 0;
  uint32_t idle_timeout_ms = 0;
  size_t max_inflight = 0;
  bool follow = false;
  double follow_rate = 50.0;
  int compact_every = 7;
  obs::Logger::Options log_options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strcmp(arg, "--small") == 0) {
        small = true;
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        seed = util::parse_number<uint64_t>(arg + 7);
      } else if (std::strncmp(arg, "--port=", 7) == 0) {
        port = util::parse_number<uint16_t>(arg + 7);
      } else if (std::strncmp(arg, "--whois-port=", 13) == 0) {
        whois_port = util::parse_number<uint16_t>(arg + 13);
      } else if (std::strncmp(arg, "--admin-port=", 13) == 0) {
        admin = true;
        admin_port = util::parse_number<uint16_t>(arg + 13);
      } else if (std::strncmp(arg, "--log-level=", 12) == 0) {
        if (auto level = obs::parse_log_level(arg + 12)) {
          log_options.level = *level;
        } else {
          DLOG_ERROR("unknown --log-level", {{"value", arg + 12}});
          return 2;
        }
      } else if (std::strncmp(arg, "--log-format=", 13) == 0) {
        if (auto format = obs::parse_log_format(arg + 13)) {
          log_options.format = *format;
        } else {
          DLOG_ERROR("unknown --log-format", {{"value", arg + 13}});
          return 2;
        }
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        threads = util::parse_number<uint32_t>(arg + 10);
      } else if (std::strncmp(arg, "--date-offset=", 14) == 0) {
        date_offset = util::parse_number<int32_t>(arg + 14);
      } else if (std::strncmp(arg, "--snapshot-dir=", 15) == 0) {
        snapshot_dir = arg + 15;
      } else if (std::strncmp(arg, "--max-resident=", 15) == 0) {
        max_resident = util::parse_number<uint64_t>(arg + 15);
      } else if (std::strncmp(arg, "--max-conns=", 12) == 0) {
        max_conns = util::parse_number<uint64_t>(arg + 12);
      } else if (std::strncmp(arg, "--idle-timeout-ms=", 18) == 0) {
        idle_timeout_ms = util::parse_number<uint32_t>(arg + 18);
      } else if (std::strncmp(arg, "--max-inflight=", 15) == 0) {
        max_inflight = util::parse_number<uint64_t>(arg + 15);
      } else if (std::strcmp(arg, "--follow") == 0) {
        follow = true;
      } else if (std::strncmp(arg, "--follow=", 9) == 0) {
        follow = true;
        follow_rate = util::parse_number<double>(arg + 9, 0.0);
      } else if (std::strncmp(arg, "--compact-every=", 16) == 0) {
        compact_every = util::parse_number<int32_t>(arg + 16);
      } else {
        DLOG_ERROR("unknown flag", {{"flag", arg}});
        return usage();
      }
    } catch (const ParseError& e) {
      DLOG_ERROR("bad flag value", {{"flag", arg}, {"error", e.what()}});
      return usage();
    }
  }
  if (compact_every < 1) compact_every = 1;

  // One process-wide registry, installed before anything that binds
  // instruments is constructed — the pool, cache, parsers, and server all
  // register here, so the /metrics page aggregates the whole process.
  // Declared first so it outlives every instrument holder.
  obs::Registry registry;
  obs::ScopedRegistry scoped_registry(registry);

  // The structured logger replaces raw stderr writes, and the flight
  // recorder arms request tracing. Both install before any TraceBinding or
  // log site resolves them: the transports, the publisher, and every DLOG_*
  // from here on bind to these instances.
  obs::Logger logger(log_options);
  obs::install_logger(&logger);
  obs::FlightRecorder recorder;
  obs::ScopedFlightRecorder scoped_recorder(recorder);

  sim::ScenarioConfig config =
      small ? sim::ScenarioConfig::small() : sim::ScenarioConfig{};
  if (seed) config.seed = seed;
  DLOG_INFO("generating world",
            {{"scale", small ? "small" : "paper-scale"},
             {"seed", std::to_string(config.seed)}});
  auto world = sim::generate(config);

  util::ThreadPool pool(threads);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  study.pool = &pool;
  study.snapshots = &cache;
  // Ingestion ledger: simulated worlds parse clean, so the gauges read zero,
  // but the families are always on the /metrics page — a scraper alerting on
  // droplens_feed_records_skipped_total works unchanged on archive-fed runs.
  core::DataQuality quality;
  study.quality = &quality;
  const size_t window_days =
      static_cast<size_t>(config.window_end.days() -
                          config.window_begin.days() + 1);
  quality.export_metrics(registry, window_days);
  core::DropIndex index = core::DropIndex::build(study);
  net::Date date = config.window_begin + date_offset;

  // The store owns snapshot versioning and, when --snapshot-dir is given,
  // the .dls files: a restart mmaps yesterday's compile instead of redoing
  // it. The server fronts the store, so every date in the study window is
  // servable — --date-offset only picks which day to warm up eagerly.
  svc::SnapshotStore::Config store_config;
  store_config.dir = snapshot_dir;
  store_config.max_resident = max_resident;
  svc::SnapshotStore store(store_config, &study, &index);
  store.get(date);  // warm the default serving date eagerly
  if (store.stats().loads > 0) {
    DLOG_INFO("mmap-loaded snapshot (no recompile)",
              {{"path", store.path_for(date)}});
  }
  svc::Server server(store, &pool);
  // The three fronts share one robustness posture: same cap, same idle
  // bound, same shed pivot — each under its own {listener=...} label.
  auto front_options = [&](const char* name, uint16_t p) {
    svc::TransportOptions o;
    o.listen.port = p;
    o.name = name;
    o.max_conns = max_conns;
    o.idle_timeout_ms = idle_timeout_ms;
    o.max_inflight = max_inflight;
    return o;
  };
  svc::EpollServer query_tcp(server, front_options("query", port));

  // --follow: the live side. The publisher owns event ingestion and the
  // delta log; the server serves its kSubscribeRequest frames from any
  // transport thread, and the follower below is the single writer.
  std::unique_ptr<stream::Publisher> publisher;
  std::thread follower;
  if (follow) {
    stream::AlarmMonitor::Config monitor_config;
    monitor_config.window_begin = config.window_begin;
    monitor_config.window_end = config.window_end;
    monitor_config.drop = &world->drop;
    publisher = std::make_unique<stream::Publisher>(monitor_config);
    publisher->seed_rir(world->registry);
    server.set_stream_feed(publisher.get());
    follower = std::thread([&world, &config, &server, &publisher, follow_rate,
                            compact_every] {
      sim::EventReplayer replayer(*world);
      const std::vector<stream::Event>& events = replayer.events();
      // Fast-forward the pre-window history in one burst: the monitor's
      // baseline and the applier's live state need it, but nobody wants to
      // watch 14 years at replay pace.
      size_t i = 0;
      while (i < events.size() && !g_stop &&
             events[i].date < config.window_begin) {
        publisher->ingest(events[i]);
        ++i;
      }
      DLOG_INFO("follower fast-forwarded pre-window history",
                {{"events", std::to_string(i)},
                 {"window_days",
                  std::to_string(config.window_end.days() -
                                 config.window_begin.days() + 1)},
                 {"days_per_sec", std::to_string(follow_rate)}});
      // Live-head versions live far above the store's monotonic counter so
      // the two artifact streams never collide.
      uint64_t version = uint64_t{1} << 62;
      int day_no = 0;
      for (net::Date d = config.window_begin;
           d <= config.window_end && !g_stop; d = d + 1, ++day_no) {
        while (i < events.size() && events[i].date == d) {
          publisher->ingest(events[i]);
          ++i;
        }
        if (day_no % compact_every == 0 || d == config.window_end) {
          server.publish(publisher->compact(d, ++version));
          // Keep a generous tail of delivered history; subscribers lagging
          // past the floor get the RTR-style reset.
          publisher->trim(size_t{1} << 16);
        }
        if (follow_rate > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(1.0 / follow_rate));
        }
      }
      DLOG_INFO("follower done",
                {{"events", std::to_string(publisher->head())},
                 {"alarms",
                  std::to_string(publisher->monitor().alarms().size())}});
    });
  }

  irr::WhoisServer whois(world->irr, date);
  svc::WhoisService whois_service(whois);
  svc::EpollServer whois_tcp(whois_service,
                            front_options("whois", whois_port));

  // The admin plane: /metrics plus health, status, traces, and logs, all
  // reading the same objects the daemon serves with — the /healthz checks
  // and the ingest-lag gauge share one source of truth with the scrape.
  svc::AdminHttpService::Options admin_options;
  admin_options.registry = &registry;
  admin_options.exemplars = &recorder;
  admin_options.recorder = &recorder;
  admin_options.logger = &logger;
  admin_options.build_info = "droplensd (" __VERSION__ ")";
  svc::AdminHttpService admin_service(admin_options);
  admin_service.add_health_check("store", [&store] {
    return store.resident_count() > 0
               ? std::nullopt
               : std::optional<std::string>("no resident days");
  });
  if (follow) {
    stream::Publisher* pub = publisher.get();
    admin_service.add_refresh_hook([pub] { pub->refresh_ingest_lag_gauge(); });
    admin_service.add_health_check("stream", [pub] {
      const double lag = pub->ingest_lag_seconds();
      return lag <= 60.0 ? std::nullopt
                         : std::optional<std::string>(
                               "ingest stalled for " +
                               std::to_string(static_cast<long>(lag)) + "s");
    });
  }
  admin_service.add_status_section("store", [&store, &snapshot_dir] {
    const svc::SnapshotStore::Stats s = store.stats();
    std::string body;
    body += "resident_days " + std::to_string(store.resident_count()) + "\n";
    body += "on_disk_days " +
            std::to_string(snapshot_dir.empty() ? 0 : store.on_disk().size()) +
            "\n";
    body += "loads " + std::to_string(s.loads) + "\n";
    body += "delta_loads " + std::to_string(s.delta_loads) + "\n";
    body += "compiles " + std::to_string(s.compiles) + "\n";
    body += "evictions " + std::to_string(s.evictions) + "\n";
    return body;
  });
  admin_service.add_status_section("serving", [&server, &config] {
    const svc::ServerStats s = server.stats();
    std::string body;
    body += "window " + config.window_begin.to_string() + ".." +
            config.window_end.to_string() + "\n";
    body += "requests " + std::to_string(s.requests) + "\n";
    body += "queries " + std::to_string(s.queries) + "\n";
    body += "malformed " + std::to_string(s.malformed) + "\n";
    return body;
  });
  if (follow) {
    stream::Publisher* pub = publisher.get();
    admin_service.add_status_section("stream", [pub] {
      std::string body;
      body += "head_seq " + std::to_string(pub->head()) + "\n";
      body += "alarms " + std::to_string(pub->monitor().alarms().size()) +
              "\n";
      body += "ingest_lag_seconds " +
              std::to_string(pub->ingest_lag_seconds()) + "\n";
      return body;
    });
  }
  std::unique_ptr<svc::EpollServer> admin_tcp;
  if (admin) {
    admin_tcp = std::make_unique<svc::EpollServer>(
        admin_service, front_options("admin", admin_port));
  }

  std::signal(SIGHUP, on_sighup);
  std::signal(SIGINT, on_sigterm);
  std::signal(SIGTERM, on_sigterm);

  DLOG_INFO("serving",
            {{"window", config.window_begin.to_string() + ".." +
                            config.window_end.to_string()},
             {"warm_date", date.to_string()},
             {"query_port", std::to_string(query_tcp.port())},
             {"whois_port", std::to_string(whois_tcp.port())},
             {"engine_threads", std::to_string(pool.concurrency())},
             {"max_resident", std::to_string(max_resident)}});
  DLOG_INFO("transport limits (0 = unlimited)",
            {{"max_conns", std::to_string(max_conns)},
             {"idle_timeout_ms", std::to_string(idle_timeout_ms)},
             {"max_inflight", std::to_string(max_inflight)}});
  if (admin_tcp) {
    DLOG_INFO("admin plane up",
              {{"url", "http://127.0.0.1:" + std::to_string(
                           admin_tcp->port()) + "/"}});
  }
  DLOG_INFO("SIGHUP rescans the snapshot directory; SIGINT stops");

  while (!g_stop) {
    if (g_reload) {
      g_reload = 0;
      DLOG_INFO("rescanning snapshot directory");
      // Incremental: days whose files are byte-identical (size+mtime) stay
      // resident; changed or deleted days re-materialize on next query.
      const size_t before = store.resident_count();
      store.rescan();
      const size_t kept = store.resident_count();
      quality.export_metrics(registry, window_days);
      DLOG_INFO("rescan done", {{"kept", std::to_string(kept)},
                                {"of", std::to_string(before)}});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  DLOG_INFO("shutting down");
  if (follower.joinable()) follower.join();
  query_tcp.stop();
  whois_tcp.stop();
  if (admin_tcp) admin_tcp->stop();
  svc::ServerStats stats = server.stats();
  DLOG_INFO("served", {{"frames", std::to_string(stats.requests)},
                       {"lookups", std::to_string(stats.queries)},
                       {"malformed", std::to_string(stats.malformed)},
                       {"reloads", std::to_string(stats.reloads)}});
  obs::install_logger(nullptr);
  return 0;
}
