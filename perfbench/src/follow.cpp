// follow: a paper-scale world lowered by sim::EventReplayer and driven the
// way `droplensd --follow=0` drives it. Set-up fast-forwards the pre-window
// history and publishes the first head; then a follower ingests day by day
// at full speed, compacting and publishing the live head every 7 days,
// while one connection queries the head's date. The only workload where
// stream does the work and Server::publish swaps snapshots under readers.
// Each measured phase runs its own follower from the window's first day;
// at full speed the window outlasts a 10 s phase about twice over.
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/alarms.hpp"
#include "core/as0_analysis.hpp"
#include "core/case_study.hpp"
#include "core/classification.hpp"
#include "core/defenses.hpp"
#include "core/impact.hpp"
#include "core/irr_analysis.hpp"
#include "core/roa_status.hpp"
#include "core/rpki_uptake.hpp"
#include "core/serial_hijackers.hpp"
#include "core/snapshot_cache.hpp"
#include "core/visibility.hpp"
#include "sim/event_replayer.hpp"
#include "sim/generator.hpp"
#include "stream/publisher.hpp"
#include "stream/snapshot_diff.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace droplens::perfbench {

namespace {

constexpr int kCompactEvery = 7;
/// Live-head versions sit far above the store's counter, as in droplensd.
constexpr uint64_t kHeadVersionBase = uint64_t{1} << 62;
constexpr size_t kRetainedHeads = 8;

struct Shape {
  bool small_world;
  size_t prefixes;
};

Shape shape(const Options& options) {
  return options.smoke ? Shape{true, 256} : Shape{false, 16384};
}

/// The heads the follower published, by version, so each answer can be
/// checked against the exact snapshot that served it; and the head date
/// the reader should ask for.
class Heads {
 public:
  void retain(std::shared_ptr<const svc::Snapshot> head) {
    std::lock_guard<std::mutex> lock(mu_);
    by_version_[head->version()] = std::move(head);
    while (by_version_.size() > kRetainedHeads) {
      by_version_.erase(by_version_.begin());
    }
  }
  std::shared_ptr<const svc::Snapshot> find(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_version_.find(version);
    return it == by_version_.end() ? nullptr : it->second;
  }
  /// Date of the newest retained head (retained before it is published).
  net::Date newest_date() const {
    std::lock_guard<std::mutex> lock(mu_);
    return by_version_.rbegin()->second->date();
  }
  void set_date(net::Date d) {
    date_.store(d.days(), std::memory_order_release);
  }
  net::Date date() const {
    return net::Date(date_.load(std::memory_order_acquire));
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const svc::Snapshot>> by_version_;
  std::atomic<int32_t> date_{0};
};

struct Daemon {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<core::SnapshotCache> cache;
  std::unique_ptr<core::Study> study;
  core::DropIndex index;
  std::unique_ptr<sim::EventReplayer> replayer;
  std::unique_ptr<stream::Publisher> publisher;
  size_t next_event = 0;  // first event not yet ingested
  net::Date day;          // last day ingested
  uint64_t version = kHeadVersionBase;
  Heads heads;
  std::unique_ptr<svc::SnapshotStore> store;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<TracedService> traced;
  std::unique_ptr<svc::EpollServer> listener;
  double generate_s = 0;
  double setup_s = 0;
};

stream::AlarmMonitor::Config monitor_config(const sim::World& w) {
  stream::AlarmMonitor::Config c;
  c.window_begin = w.config.window_begin;
  c.window_end = w.config.window_end;
  c.drop = &w.drop;
  return c;
}

std::unique_ptr<Daemon> set_up(const Options& options) {
  SetupClock clock;
  auto d = std::make_unique<Daemon>();
  const sim::ScenarioConfig config = shape(options).small_world
                                         ? sim::ScenarioConfig::small()
                                         : sim::ScenarioConfig{};
  const uint64_t t0 = now_ns();
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

  // Lower the world, fast-forward the pre-window history, ingest the first
  // window day and publish its head.
  d->replayer = std::make_unique<sim::EventReplayer>(w);
  d->publisher = std::make_unique<stream::Publisher>(monitor_config(w));
  d->publisher->seed_rir(w.registry);
  const std::vector<stream::Event>& events = d->replayer->events();
  d->day = config.window_begin;
  while (d->next_event < events.size() &&
         events[d->next_event].date <= d->day) {
    d->publisher->ingest(events[d->next_event++]);
  }
  std::shared_ptr<const svc::Snapshot> head =
      d->publisher->compact(d->day, ++d->version);
  d->heads.retain(head);

  // Store mode with an empty, compiler-less store: only the live head
  // serves. (droplensd attaches a compiler; here a query that races a
  // publish would then compile a whole day on the event thread at random
  // points of the run, instead of getting a typed "unavailable".)
  d->store = std::make_unique<svc::SnapshotStore>(svc::SnapshotStore::Config{});
  d->server = std::make_unique<svc::Server>(*d->store);
  d->server->set_stream_feed(d->publisher.get());
  d->server->publish(std::move(head));
  d->heads.set_date(d->day);
  d->traced = std::make_unique<TracedService>(*d->server);
  {
    ScopedAffinity event_threads(CpuPlan::make().server);
    d->listener =
        std::make_unique<svc::EpollServer>(*d->traced, query_listener());
  }
  d->setup_s = clock.seconds();
  return d;
}

/// One compaction cycle of the follower.
struct Cycle {
  uint64_t published_ns = 0;
  uint64_t events = 0;      // events ingested in the cycle
  double staleness_ms = 0;  // first event handed to ingest → publish returned
  double compact_ms = 0;
  double publish_us = 0;
};

/// The follower thread: ingest day by day, at full speed or (days_per_s >
/// 0) paced like `droplensd --follow=N`; every 7th day compact, publish and
/// trim, as droplensd's follower does.
class Follower {
 public:
  Follower(Daemon& d, double days_per_s)
      : d_(d), days_per_s_(days_per_s), thread_([this] { run(); }) {}
  ~Follower() { stop(); }
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  const std::vector<Cycle>& cycles() const { return cycles_; }
  /// When the follower published the window's last day; 0 if it was
  /// stopped before. Valid after stop().
  uint64_t finished_ns() const { return finished_ns_; }

 private:
  void run() {
    pin_thread({CpuPlan::make().worker(0)});
    const std::vector<stream::Event>& events = d_.replayer->events();
    const net::Date begin = d_.world->config.window_begin;
    const net::Date end = d_.world->config.window_end;
    uint64_t cycle_start = 0;
    uint64_t cycle_events = 0;
    while (!stop_.load(std::memory_order_relaxed) && d_.day < end) {
      d_.day = d_.day + 1;
      while (d_.next_event < events.size() &&
             events[d_.next_event].date == d_.day) {
        if (cycle_start == 0) cycle_start = now_ns();
        d_.publisher->ingest(events[d_.next_event++]);
        ++cycle_events;
      }
      if ((d_.day - begin) % kCompactEvery == 0 || d_.day == end) {
        const uint64_t t0 = now_ns();
        std::shared_ptr<const svc::Snapshot> head =
            d_.publisher->compact(d_.day, ++d_.version);
        const uint64_t t1 = now_ns();
        d_.heads.retain(head);
        d_.server->publish(std::move(head));
        const uint64_t t2 = now_ns();
        d_.heads.set_date(d_.day);
        d_.publisher->trim(size_t{1} << 16);
        if (cycle_start != 0) {
          cycles_.push_back({t2, cycle_events,
                             static_cast<double>(t2 - cycle_start) * 1e-6,
                             static_cast<double>(t1 - t0) * 1e-6,
                             static_cast<double>(t2 - t1) * 1e-3});
        }
        cycle_start = 0;
        cycle_events = 0;
        if (d_.day == end) finished_ns_ = t2;
      }
      if (days_per_s_ > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / days_per_s_));
      }
    }
  }

  Daemon& d_;
  const double days_per_s_;
  std::atomic<bool> stop_{false};
  std::vector<Cycle> cycles_;
  uint64_t finished_ns_ = 0;
  std::thread thread_;  // last: starts once the members above exist
};

/// Single-query frames at the live head's date, each answer checked against
/// the head whose version it carries.
class HeadSource : public RequestSource {
 public:
  HeadSource(const std::vector<net::Prefix>& prefixes, const Heads& heads)
      : prefixes_(prefixes), heads_(heads) {
    request_.queries.resize(1);
  }

  const Request& next(uint32_t& index) override {
    index = static_cast<uint32_t>(next_);
    request_.queries[0] =
        svc::Query{heads_.date(), prefixes_[next_], svc::kAllFields};
    next_ = (next_ + 1) % prefixes_.size();
    return request_;
  }

  std::string check(const Request& request,
                    const svc::QueryResponse& response) override {
    if (response.answers.size() != 1) return "answer count != 1";
    const svc::Query& q = request.queries[0];
    if (response.answers[0].status ==
        static_cast<uint8_t>(svc::QueryStatus::kUnavailable)) {
      // The head moved on between reading its date and the frame arriving,
      // and the store holds no history: a typed "not available" is right.
      return q.date < heads_.newest_date()
                 ? std::string()
                 : "head date " + q.date.to_string() + " answered unavailable";
    }
    const uint64_t v = response.snapshot_version;
    if (!head_ || head_->version() != v) head_ = heads_.find(v);
    if (!head_) return "head version " + std::to_string(v) + " not retained";
    if (head_->date() != q.date) return "head date differs from the query's";
    if (!(response.answers[0] == head_->lookup_reference(q.prefix, q.fields))) {
      return "answer for " + q.prefix.to_string() + " on head " +
             q.date.to_string() + " differs from the reference";
    }
    return {};
  }

 private:
  const std::vector<net::Prefix>& prefixes_;
  const Heads& heads_;
  Request request_;
  size_t next_ = 0;
  std::shared_ptr<const svc::Snapshot> head_;
};

std::vector<net::Prefix> build_prefixes(const sim::World& world, size_t n,
                                        uint64_t seed) {
  const std::vector<net::Prefix> announced = world.fleet.announced_prefixes();
  Rng rng(seed);
  std::vector<net::Prefix> out;
  for (size_t i = 0; i < n; ++i) {
    if (rng.below(2) == 0 && !announced.empty()) {
      out.push_back(announced[rng.below(announced.size())]);
    } else {
      out.push_back(net::Prefix::containing(
          net::Ipv4(static_cast<uint32_t>(rng.next())),
          8 + static_cast<int>(rng.below(25))));
    }
  }
  return out;
}

bool same_alarm(const core::Alarm& a, const core::Alarm& b) {
  return a.kind == b.kind && a.prefix == b.prefix &&
         a.monitored == b.monitored && a.when == b.when &&
         a.new_origin == b.new_origin && a.on_drop == b.on_drop;
}

/// End-of-run checks: the live head against compile_snapshot for its day,
/// and the online alarms against the batch analysis up to the last
/// ingested day. Returns the compile time of the head's day in ms.
double check_end_state(Daemon& d, Report& report) {
  std::shared_ptr<const svc::Snapshot> head = d.heads.find(d.version);
  const uint64_t t0 = now_ns();
  std::shared_ptr<const svc::Snapshot> ref =
      svc::compile_snapshot(*d.study, d.index, head->date(), 0);
  const double compile_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  if (!stream::snapshots_equal(*head, *ref)) {
    report.wrong("live head for " + head->date().to_string() +
                 " differs from compile_snapshot");
  }

  const core::AlarmResult batch = core::analyze_alarms(*d.study, d.index);
  const std::vector<core::Alarm>& online = d.publisher->monitor().alarms();
  bool match = online.size() <= batch.alarms.size();
  for (size_t i = 0; match && i < online.size(); ++i) {
    match = same_alarm(online[i], batch.alarms[i]);
  }
  if (match && online.size() < batch.alarms.size()) {
    match = batch.alarms[online.size()].when > d.day;
  }
  if (!match) {
    report.wrong("online alarms (" + std::to_string(online.size()) +
                 ") differ from analyze_alarms up to " + d.day.to_string());
  }
  return compile_ms;
}

/// Applier::apply, AlarmMonitor::on_event and EventLog::append replayed
/// over every event the run ingested, each component seeing the events in
/// Publisher order; timed in chunks so clock reads stay negligible.
void stream_layers(Values& layers, const Daemon& d) {
  const std::vector<stream::Event>& events = d.replayer->events();
  stream::Applier applier;
  applier.seed_rir(d.world->registry);
  stream::AlarmMonitor monitor(monitor_config(*d.world));
  stream::EventLog log;
  uint64_t apply_ns = 0, alarm_ns = 0, append_ns = 0;
  constexpr size_t kChunk = 256;
  for (size_t b = 0; b < d.next_event; b += kChunk) {
    const size_t e = std::min(d.next_event, b + kChunk);
    const uint64_t t0 = now_ns();
    for (size_t i = b; i < e; ++i) applier.apply(events[i]);
    const uint64_t t1 = now_ns();
    for (size_t i = b; i < e; ++i) monitor.on_event(events[i]);
    const uint64_t t2 = now_ns();
    for (size_t i = b; i < e; ++i) log.append(events[i]);
    const uint64_t t3 = now_ns();
    apply_ns += t1 - t0;
    alarm_ns += t2 - t1;
    append_ns += t3 - t2;
  }
  const double n = static_cast<double>(std::max<size_t>(d.next_event, 1));
  layers["stream.apply_ns"] = static_cast<double>(apply_ns) / n;
  layers["stream.alarm_ns"] = static_cast<double>(alarm_ns) / n;
  layers["stream.append_ns"] = static_cast<double>(append_ns) / n;
}

/// The paper's analyses, in write_report's order, on one cold cache and a
/// pool of the set-up size.
void core_layers(Values& layers, const Daemon& d, const ObsPlane& plane) {
  util::ThreadPool pool(util::ThreadPool::default_thread_count());
  core::SnapshotCache cache(d.world->registry, d.world->fleet, d.world->roas,
                            d.world->drop, &d.world->irr);
  core::Study study = *d.study;
  study.pool = &pool;
  study.snapshots = &cache;
  const core::DropIndex& index = d.index;
  const uint64_t hits = plane.counter("droplens_cache_hits_total");
  const uint64_t misses = plane.counter("droplens_cache_misses_total");
  auto time = [&](const char* name, const std::function<void()>& fn) {
    const uint64_t t0 = now_ns();
    fn();
    layers[name] = static_cast<double>(now_ns() - t0) * 1e-6;
  };
  time("core.classification_ms",
       [&] { core::analyze_classification(study, index); });
  time("core.visibility_ms", [&] { core::analyze_visibility(study, index); });
  time("core.rpki_uptake_ms",
       [&] { core::analyze_rpki_uptake(study, index); });
  time("core.irr_ms", [&] { core::analyze_irr(study, index); });
  time("core.case_study_ms", [&] { core::analyze_case_study(study, index); });
  time("core.roa_status_ms", [&] { core::analyze_roa_status(study); });
  time("core.as0_ms", [&] { core::analyze_as0(study, index); });
  time("core.defenses_ms", [&] { core::analyze_defenses(study, index); });
  time("core.serial_hijackers_ms",
       [&] { core::analyze_serial_hijackers(study, index); });
  time("core.alarms_ms", [&] { core::analyze_alarms(study, index); });
  time("core.rov_adoption_ms", [&] {
    core::analyze_rov_adoption(study, index, {0.5});
  });
  const double h =
      static_cast<double>(plane.counter("droplens_cache_hits_total") - hits);
  const double m =
      static_cast<double>(plane.counter("droplens_cache_misses_total") - misses);
  layers["core.cache_hit_ratio"] = h + m > 0 ? h / (h + m) : 0.0;
  layers["core.cache_misses"] = m;
}

/// `field` of the cycles whose publish returned inside `phase`.
std::vector<double> in_phase(const std::vector<Cycle>& cycles,
                             const PhaseResult& phase, double Cycle::*field) {
  std::vector<double> out;
  for (const Cycle& c : cycles) {
    if (c.published_ns >= phase.from_ns && c.published_ns < phase.until_ns) {
      out.push_back(c.*field);
    }
  }
  return out;
}

struct FollowPhase {
  PhaseResult serving;
  std::vector<Cycle> cycles;
};

/// One measured phase of follow: a follower on `d` from its first window
/// day, one reader at the head date. The phase is wrong unless the follower
/// published inside it and was still ingesting when it ended; otherwise the
/// reader would have measured a static head.
FollowPhase follow_phase(Daemon& d, const std::vector<net::Prefix>& prefixes,
                         bool armed, double warmup_s, double days_per_s,
                         const Options& options, Report& report) {
  HeadSource source(prefixes, d.heads);
  Follower follower(d, days_per_s);
  FollowPhase out;
  out.serving = run_phase(d.listener->port(), {&source}, *d.traced, armed,
                          warmup_s, options.seconds);
  follower.stop();
  out.cycles = follower.cycles();
  const uint64_t finished = follower.finished_ns();
  if (finished != 0 && finished < out.serving.until_ns) {
    report.wrong("the follower published the window's last day " +
                 std::to_string(
                     seconds_between(finished, out.serving.until_ns)) +
                 " s before the measured phase ended");
  }
  if (in_phase(out.cycles, out.serving, &Cycle::publish_us).empty()) {
    report.wrong("no head was published inside the measured phase");
  }
  return out;
}

}  // namespace

Report run_follow(const Options& options) {
  const Shape s = shape(options);
  ObsPlane plane;
  Report report;
  record_host(report, options);
  report.config("loop", "closed");
  report.config("connections", "1");
  report.config("event_threads",
                std::to_string(query_listener().event_threads));
  report.config("follower_threads", "1");
  report.config("setup_pool_threads",
                std::to_string(util::ThreadPool::default_thread_count()));
  report.config("frame", "1 query at the live head's date");
  report.config("compact_every_days", std::to_string(kCompactEvery));

  std::vector<double> setup_s, generate_s;
  std::vector<net::Prefix> prefixes;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    daemon = set_up(options);
    setup_s.push_back(daemon->setup_s);
    generate_s.push_back(daemon->generate_s);
    if (rep == 0) {
      prefixes = build_prefixes(*daemon->world, s.prefixes,
                                options.seed ^ 0xf011011ULL);
    }
  }

  // Smoke worlds compact in about a millisecond; pacing the follower makes
  // the window last about three phases, so heads still swap under the
  // reader in every measured phase.
  const double phase_s = warmup_seconds(options) + options.seconds;
  const double days_per_s =
      options.smoke ? (daemon->world->config.window_end -
                       daemon->world->config.window_begin) /
                          (3 * phase_s)
                    : 0;
  report.config("follower_days_per_s",
                days_per_s > 0 ? std::to_string(days_per_s) : "full speed");

  const FollowPhase untraced =
      follow_phase(*daemon, prefixes, false, warmup_seconds(options),
                   days_per_s, options, report);
  if (!options.trace) {
    const ServingSummary sum =
        summarize(untraced.serving.clients, untraced.serving.from_ns,
                  untraced.serving.until_ns, report);
    const double rss = peak_rss_mib();  // before the checks allocate
    check_end_state(*daemon, report);
    emit(report, kEndToEnd,
         {{"setup_s", median(setup_s)},
          {"peak_rss_mib", rss},
          {"lookups_per_s", sum.lookups_per_s},
          {"frame_p50_us", sum.frame_p50_us},
          {"frame_p90_us", sum.frame_p90_us}});
    return report;
  }

  // The traced phase gets a fresh set-up, so its follower too starts at the
  // window's first day and runs through the whole phase.
  check_end_state(*daemon, report);
  daemon.reset();
  daemon = set_up(options);
  const svc::SnapshotStore::Stats before = daemon->store->stats();
  const FollowPhase traced_phase = follow_phase(
      *daemon, prefixes, true, 0, days_per_s, options, report);
  const PhaseResult& traced = traced_phase.serving;
  const svc::SnapshotStore::Stats after = daemon->store->stats();
  daemon->listener->stop();

  Values layers;
  const TraceSummary trace =
      serving_layers(layers, untraced.serving, traced, *daemon->traced, plane,
                     report, stats_delta(before, after));
  write_spans(options.work_dir + "/traces/follow-seed" +
                  std::to_string(options.seed) + ".csv",
              traced.clients, *daemon->traced);
  layers["sim.generate_s"] = median(generate_s);
  layers["svc.compile_ms"] = check_end_state(*daemon, report);

  const std::vector<Cycle>& cycles = traced_phase.cycles;
  const std::vector<double> staleness =
      in_phase(cycles, traced, &Cycle::staleness_ms);
  layers["staleness_p50_ms"] = quantile(staleness, 0.5);
  layers["staleness_p90_ms"] = quantile(staleness, 0.9);
  layers["stream.compact_ms"] =
      median(in_phase(cycles, traced, &Cycle::compact_ms));
  layers["svc.server.publish_us"] =
      median(in_phase(cycles, traced, &Cycle::publish_us));
  double events = 0;
  for (const Cycle& c : cycles) {
    if (c.published_ns >= traced.from_ns && c.published_ns < traced.until_ns) {
      events += static_cast<double>(c.events);
    }
  }
  layers["ingest_events_per_s"] = events / traced.seconds();
  layers["stream.rejected"] = static_cast<double>(
      plane.counter("droplens_stream_events_rejected_total"));
  stream_layers(layers, *daemon);

  // Lookups and codec on the final head over the reader's prefixes.
  std::shared_ptr<const svc::Snapshot> head =
      daemon->heads.find(daemon->version);
  std::vector<Request> sample(prefixes.size());
  std::vector<const Request*> sample_ptrs;
  const uint8_t fields = svc::kAllFields;
  svc::Answer out;
  uint64_t t0 = now_ns();
  for (const net::Prefix& p : prefixes) {
    head->lookup_batch({&p, 1}, {&fields, 1}, {&out, 1});
    g_sink = g_sink + out.fields;
  }
  const double n = static_cast<double>(prefixes.size());
  layers["svc.snapshot.lookup_batch_ns"] =
      static_cast<double>(now_ns() - t0) / n;
  t0 = now_ns();
  for (const net::Prefix& p : prefixes) {
    g_sink = g_sink + head->lookup(p, fields).fields;
  }
  layers["svc.snapshot.lookup_ns"] = static_cast<double>(now_ns() - t0) / n;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    sample[i].queries = {svc::Query{head->date(), prefixes[i], fields}};
    sample[i].expected = {head->lookup_reference(prefixes[i], fields)};
    sample_ptrs.push_back(&sample[i]);
  }
  protocol_layers(layers, sample_ptrs);
  core_layers(layers, *daemon, plane);

  const double per_frame_ns = layers["svc.protocol.decode_request_ns"] +
                              layers["svc.snapshot.lookup_batch_ns"] +
                              layers["svc.protocol.encode_response_ns"];
  layers["trace.reconcile_gap_pct"] = reconcile_gap(trace, per_frame_ns * 1e-3);
  emit(report, kPerLayer, layers);
  return report;
}

}  // namespace droplens::perfbench
