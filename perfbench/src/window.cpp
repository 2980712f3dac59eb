// window: whole-window time travel over a delta-encoded directory. Set-up
// compiles D consecutive days through store write-through, then re-encodes
// the directory as delta chains with a keyframe every 7 days, as
// `snapshot_tool delta` does. A disk-only store serves it with an LRU of one
// chain plus two days, well below D. Two connections send single-query
// frames at recency-skewed dates inside the newest chain, a range frame over
// the newest days every 16th frame, and a query into an older chain every
// 1024th. Per-frame costs (transport, codec, dispatch, the store's registry
// lock) dominate, the old-chain queries push mmap loads and delta-chain
// resolves into the tail, and lookups hit a cache-resident ~10K-interval
// snapshot.
//
// The traffic mix is assumed, not measured: no query log of the service
// exists. The constants below are chosen to keep every path of the store
// in play at fixed shares, each with its reason; a later change that
// favours one path should be judged knowing the shares are guesses.
#include <cmath>
#include <memory>

#include "core/snapshot_cache.hpp"
#include "sim/generator.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace droplens::perfbench {

namespace {

constexpr size_t kConns = 2;
constexpr size_t kKeyframeEvery = 7;
/// Assumed: one frame in 16 is a range, enough that range_us has thousands
/// of samples a run while single-query frames still set frame_p50_us.
constexpr size_t kRangeEvery = 16;
/// Assumed: every kDeepEvery-th request asks for a day in an older chain,
/// so LRU misses (mmap load plus delta resolve) are rare enough to sit in
/// the tail rather than the median. Placed on a fixed schedule (not drawn)
/// so every seed has the same misses.
constexpr size_t kDeepEvery = 1024;
/// Assumed: day-age skew inside the newest chain, P(age = k) falling by
/// kRecency per day of age, so most queries ask for the last few days (as a
/// client looking up current DROP status would) while every resident day
/// still gets hits.
constexpr double kRecency = 0.6;

struct Shape {
  bool small_world;
  int days;
  size_t max_resident;
  size_t requests_per_conn;
};

Shape shape(const Options& options) {
  return options.smoke ? Shape{true, 8, 3, 2048}
                       : Shape{false, 21, kKeyframeEvery + 2, 16384};
}

struct Daemon {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<core::SnapshotCache> cache;
  std::unique_ptr<core::Study> study;
  core::DropIndex index;
  std::unique_ptr<svc::SnapshotStore> store;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<TracedService> traced;
  std::unique_ptr<svc::EpollServer> listener;
  std::vector<net::Date> days;
  double generate_s = 0;
  double setup_s = 0;
};

/// Benchmark bookkeeping run inside a set-up, off its clock.
struct Hooks {
  std::function<void(const sim::World&, const std::vector<net::Date>&)>
      on_world;
  std::function<void(size_t, const svc::Snapshot&)> on_day;
};

svc::SnapshotStore::Config disk_store(const std::string& dir,
                                      size_t max_resident) {
  svc::SnapshotStore::Config c;
  c.dir = dir;
  c.max_resident = max_resident;
  c.save_compiled = false;
  return c;
}

std::unique_ptr<Daemon> set_up(const Options& options, ScratchDir& dir,
                               const Hooks& hooks) {
  const Shape s = shape(options);
  SetupClock clock;
  clock.exclude([&] { dir.reset(); });
  auto d = std::make_unique<Daemon>();
  const sim::ScenarioConfig config =
      s.small_world ? sim::ScenarioConfig::small() : sim::ScenarioConfig{};
  uint64_t t0 = now_ns();
  d->world = sim::generate(config);
  d->generate_s = seconds_between(t0, now_ns());

  sim::World& w = *d->world;
  d->pool = std::make_unique<util::ThreadPool>(
      util::ThreadPool::default_thread_count());
  d->cache = std::make_unique<core::SnapshotCache>(w.registry, w.fleet, w.roas,
                                                   w.drop, &w.irr);
  d->study = std::make_unique<core::Study>(
      core::Study{w.registry, w.fleet, w.irr, w.roas, w.drop, w.sbl,
                  config.window_begin, config.window_end});
  d->study->pool = d->pool.get();
  d->study->snapshots = d->cache.get();
  d->index = core::DropIndex::build(*d->study);
  for (int i = s.days - 1; i >= 0; --i) {
    d->days.push_back(config.window_end - i);
  }
  if (hooks.on_world) clock.exclude([&] { hooks.on_world(w, d->days); });

  {
    // Compile every day through write-through: each get() compiles and
    // saves a keyframe.
    svc::SnapshotStore::Config c;
    c.dir = dir.path();
    c.max_resident = s.max_resident;
    svc::SnapshotStore writer(c, d->study.get(), &d->index);
    for (size_t i = 0; i < d->days.size(); ++i) {
      std::shared_ptr<const svc::Snapshot> snap = writer.get(d->days[i]);
      if (!snap) throw std::runtime_error("window: cannot compile a day");
      if (hooks.on_day) clock.exclude([&] { hooks.on_day(i, *snap); });
    }
  }
  {
    // Re-encode in place as delta chains, the way `snapshot_tool delta`
    // does: a disk-only store resolves each file, every 7th stays a
    // keyframe, the rest become deltas over the previous day.
    svc::SnapshotStore reader(disk_store(dir.path(), kKeyframeEvery + 2));
    std::shared_ptr<const svc::Snapshot> prev;
    const std::vector<net::Date> on_disk = reader.on_disk();
    for (size_t i = 0; i < on_disk.size(); ++i) {
      std::shared_ptr<const svc::Snapshot> snap = reader.get(on_disk[i]);
      if (i % kKeyframeEvery != 0) {
        svc::save_snapshot_delta(*snap, *prev, reader.path_for(on_disk[i]));
      }
      prev = std::move(snap);
    }
  }
  d->store = std::make_unique<svc::SnapshotStore>(
      disk_store(dir.path(), s.max_resident));
  d->store->get(d->days.back());  // warm the newest day, as droplensd does
  d->server = std::make_unique<svc::Server>(*d->store);
  d->traced = std::make_unique<TracedService>(*d->server);
  {
    ScopedAffinity event_threads(CpuPlan::make().server);
    d->listener =
        std::make_unique<svc::EpollServer>(*d->traced, query_listener());
  }
  d->setup_s = clock.seconds();
  return d;
}

/// Days the store had to materialize (a get() that is not a pure hit).
size_t materializations(const svc::SnapshotStore::Stats& s) {
  return s.loads + s.delta_loads + s.compiles + s.load_failures;
}

/// Recency-skewed day index inside the newest `chain` days: a geometric
/// age, redrawn until it falls inside.
int recent_day(Rng& rng, int days, int chain) {
  while (true) {
    const double u = 1.0 - rng.unit();  // (0, 1]
    const int age =
        static_cast<int>(std::floor(std::log(u) / std::log(kRecency)));
    if (age < chain) return days - 1 - age;
  }
}

std::vector<std::vector<Request>> build_corpora(
    const sim::World& world, const std::vector<net::Date>& days,
    const Shape& shape, uint64_t seed) {
  const std::vector<net::Prefix> announced = world.fleet.announced_prefixes();
  const int n = static_cast<int>(days.size());
  const int chain = std::min(static_cast<int>(kKeyframeEvery), n);
  Rng rng(seed);
  auto prefix = [&](Rng& r) {
    if (r.below(2) == 0 && !announced.empty()) {
      return announced[r.below(announced.size())];
    }
    return net::Prefix::containing(
        net::Ipv4(static_cast<uint32_t>(r.next())),
        8 + static_cast<int>(r.below(25)));
  };
  auto make = [&](Rng& r, size_t i) {
    Request req;
    if (i % kDeepEvery == kDeepEvery / 2) {
      // Old days in a fixed rotation, so the chain depth resolved per miss
      // is the same mix for every seed.
      const size_t old_days = static_cast<size_t>(std::max(n - chain, 1));
      req.queries.push_back(svc::Query{days[(i / kDeepEvery) % old_days],
                                       prefix(r), svc::kAllFields});
    } else if (i % kRangeEvery == kRangeEvery - 1) {
      // "This prefix over the last few days", inside the newest chain.
      const int span = 2 + static_cast<int>(r.below(chain - 1));
      req.range = svc::RangeQuery{days[n - span], days[n - 1], prefix(r),
                                  svc::kAllFields};
      req.expected_range.prefix = req.range.prefix;
      req.expected_range.fields = req.range.fields;
    } else {
      req.queries.push_back(svc::Query{days[recent_day(r, n, chain)],
                                       prefix(r), svc::kAllFields});
    }
    return req;
  };
  return distinct_corpora(kConns, shape.requests_per_conn, rng, make);
}

/// Reference answers for day `snap` (days arrive in ascending order, so
/// range runs are built front to back, merging like the server does).
void add_reference_day(std::vector<std::vector<Request>>& corpora,
                       const svc::Snapshot& snap) {
  const net::Date day = snap.date();
  for (auto& corpus : corpora) {
    for (Request& r : corpus) {
      if (!r.is_range()) {
        if (r.queries[0].date == day) {
          r.expected = {
              snap.lookup_reference(r.queries[0].prefix, r.queries[0].fields)};
        }
        continue;
      }
      if (day < r.range.begin || r.range.end < day) continue;
      const svc::Answer a =
          snap.lookup_reference(r.range.prefix, r.range.fields);
      auto& runs = r.expected_range.runs;
      if (!runs.empty() && runs.back().degraded == snap.degraded() &&
          runs.back().answer == a) {
        ++runs.back().days;
      } else {
        runs.push_back(svc::RangeRun{day, 1, snap.degraded(), a});
      }
    }
  }
}

/// svc.compile and svc.snapshot_io replays over the workload's days.
void persistence_layers(Values& layers, Daemon& d, const std::string& dir) {
  core::SnapshotCache cold(d.world->registry, d.world->fleet, d.world->roas,
                           d.world->drop, &d.world->irr);
  core::Study study = *d.study;
  study.snapshots = &cold;
  std::vector<double> compile_ms;
  for (net::Date day : d.days) {
    const uint64_t t0 = now_ns();
    svc::compile_snapshot(study, d.index, day, 0);
    compile_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  layers["svc.compile_ms"] = median(compile_ms);

  std::vector<std::shared_ptr<const svc::Snapshot>> snaps;
  std::vector<double> load_ms, delta_load_ms, save_ms, delta_save_ms;
  for (size_t i = 0; i < d.days.size(); ++i) {
    const std::string path = d.store->path_for(d.days[i]);
    const uint64_t t0 = now_ns();
    const bool keyframe =
        svc::snapshot_file_kind(path) == svc::SnapshotFileKind::kKeyframe;
    snaps.push_back(keyframe ? svc::load_snapshot(path, i + 1)
                             : svc::load_snapshot_delta(path, *snaps.back(),
                                                        i + 1));
    (keyframe ? load_ms : delta_load_ms)
        .push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  const std::string tmp = dir + "/replay.tmp";
  for (size_t i = 0; i < snaps.size(); ++i) {
    uint64_t t0 = now_ns();
    svc::save_snapshot(*snaps[i], tmp);
    save_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (i % kKeyframeEvery != 0) {
      t0 = now_ns();
      svc::save_snapshot_delta(*snaps[i], *snaps[i - 1], tmp);
      delta_save_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
  }
  layers["svc.snapshot_io.load_ms"] = median(load_ms);
  layers["svc.snapshot_io.delta_load_ms"] = median(delta_load_ms);
  layers["svc.snapshot_io.save_ms"] = median(save_ms);
  layers["svc.snapshot_io.delta_save_ms"] = median(delta_save_ms);
}

}  // namespace

Report run_window(const Options& options) {
  const Shape s = shape(options);
  ObsPlane plane;
  Report report;
  record_host(report, options);
  report.config("loop", "closed");
  report.config("connections", std::to_string(kConns));
  report.config("event_threads",
                std::to_string(query_listener().event_threads));
  report.config("setup_pool_threads",
                std::to_string(util::ThreadPool::default_thread_count()));
  report.config("frame",
                "1 query in the newest chain; every 16th a range over its "
                "newest 2-7 days; every 1024th 1 query in an older chain");
  report.config("days", std::to_string(s.days));
  report.config("keyframe_every", std::to_string(kKeyframeEvery));
  report.config("max_resident", std::to_string(s.max_resident));

  ScratchDir dir(options, "window");
  std::vector<double> setup_s, generate_s;
  std::vector<std::vector<Request>> corpora;
  Hooks reference;
  reference.on_world = [&](const sim::World& w,
                           const std::vector<net::Date>& days) {
    corpora = build_corpora(w, days, s, options.seed ^ 0x3172d0e5ULL);
  };
  reference.on_day = [&](size_t, const svc::Snapshot& snap) {
    add_reference_day(corpora, snap);
  };
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    daemon = set_up(options, dir, rep == 0 ? reference : Hooks{});
    setup_s.push_back(daemon->setup_s);
    generate_s.push_back(daemon->generate_s);
  }
  const double kib_per_day =
      static_cast<double>(dir.bytes()) / 1024.0 / s.days;

  std::vector<CorpusSource> sources;
  std::vector<RequestSource*> source_ptrs;
  for (size_t c = 0; c < kConns; ++c) sources.emplace_back(corpora[c], 0);
  for (CorpusSource& src : sources) source_ptrs.push_back(&src);
  const uint16_t port = daemon->listener->port();

  const PhaseResult untraced =
      run_phase(port, source_ptrs, *daemon->traced, false,
                warmup_seconds(options), options.seconds);
  if (!options.trace) {
    const ServingSummary sum = summarize(untraced.clients, untraced.from_ns,
                                         untraced.until_ns, report);
    emit(report, kEndToEnd,
         {{"setup_s", median(setup_s)},
          {"peak_rss_mib", peak_rss_mib()},
          {"lookups_per_s", sum.lookups_per_s},
          {"frame_p50_us", sum.frame_p50_us},
          {"frame_p90_us", sum.frame_p90_us}});
    return report;
  }

  const svc::SnapshotStore::Stats before = daemon->store->stats();
  const PhaseResult traced = run_phase(port, source_ptrs, *daemon->traced,
                                       true, 0, options.seconds);
  const svc::SnapshotStore::Stats after = daemon->store->stats();
  daemon->listener->stop();

  Values layers;
  const TraceSummary trace =
      serving_layers(layers, untraced, traced, *daemon->traced, plane, report,
                     stats_delta(before, after));
  write_spans(options.work_dir + "/traces/window-seed" +
                  std::to_string(options.seed) + ".csv",
              traced.clients, *daemon->traced);
  layers["sim.generate_s"] = median(generate_s);
  layers["store_kib_per_day"] = kib_per_day;

  // The store's own calls, replayed in the order the server made them, on
  // a fresh store with the same configuration.
  double query_get_ns = 0;  // median get() of a single-query frame
  {
    svc::SnapshotStore replay(disk_store(dir.path(), s.max_resident));
    std::vector<double> hit_ns, miss_us, query_gets;
    for (const TraceSummary::Served& served : trace.served) {
      const Request& r = corpora[served.conn][served.request];
      const net::Date first = r.is_range() ? r.range.begin : r.queries[0].date;
      const net::Date last = r.is_range() ? r.range.end : first;
      for (net::Date day = first; day <= last; day = day + 1) {
        const size_t loads = materializations(replay.stats());
        const uint64_t t0 = now_ns();
        replay.get(day);
        const double ns = static_cast<double>(now_ns() - t0);
        if (materializations(replay.stats()) == loads) {
          hit_ns.push_back(ns);
        } else {
          miss_us.push_back(ns * 1e-3);
        }
        if (!r.is_range()) query_gets.push_back(ns);
      }
    }
    layers["svc.store.hit_ns"] = mean(hit_ns);
    layers["svc.store.miss_us_p50"] = quantile(miss_us, 0.5);
    layers["svc.store.miss_us_p99"] = quantile(miss_us, 0.99);
    query_get_ns = median(query_gets);
  }

  // Lookups on the served snapshots, one query per call as the server
  // answers a single-query frame.
  {
    svc::SnapshotStore all(disk_store(dir.path(), 0));
    std::vector<std::pair<const svc::Snapshot*, net::Prefix>> queries;
    std::vector<std::shared_ptr<const svc::Snapshot>> keep;
    std::vector<const Request*> sample;
    for (const auto& corpus : corpora) {
      for (const Request& r : corpus) {
        if (r.is_range()) continue;
        keep.push_back(all.get(r.queries[0].date));
        queries.emplace_back(keep.back().get(), r.queries[0].prefix);
        sample.push_back(&r);
      }
    }
    const uint8_t fields = svc::kAllFields;
    svc::Answer out;
    uint64_t t0 = now_ns();
    for (const auto& [snap, prefix] : queries) {
      snap->lookup_batch({&prefix, 1}, {&fields, 1}, {&out, 1});
      g_sink = g_sink + out.fields;
    }
    const double n = static_cast<double>(queries.size());
    layers["svc.snapshot.lookup_batch_ns"] =
        static_cast<double>(now_ns() - t0) / n;
    t0 = now_ns();
    for (const auto& [snap, prefix] : queries) {
      g_sink = g_sink + snap->lookup(prefix, fields).fields;
    }
    layers["svc.snapshot.lookup_ns"] = static_cast<double>(now_ns() - t0) / n;
    protocol_layers(layers, sample);
  }
  persistence_layers(layers, *daemon, dir.path());

  const double per_frame_ns = layers["svc.protocol.decode_request_ns"] +
                              query_get_ns +
                              layers["svc.snapshot.lookup_batch_ns"] +
                              layers["svc.protocol.encode_response_ns"];
  layers["trace.reconcile_gap_pct"] = reconcile_gap(trace, per_frame_ns * 1e-3);
  emit(report, kPerLayer, layers);
  return report;
}

}  // namespace droplens::perfbench
