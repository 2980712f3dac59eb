// Streaming ingest under load: events/s through the live pipeline, online
// alarm latency, and compaction cost.
//
// Three phases over one generated world:
//
//   replay   the full canonical event stream (sim::EventReplayer) through a
//            stream::Publisher — applier + online alarms + delta log — then
//            cross-check that the online alarm sequence is identical to the
//            batch replay (core::analyze_alarms). A mismatch fails the run:
//            a throughput number for a pipeline that drifts from the batch
//            semantics would be meaningless.
//
//   churn    a sustained announce/withdraw cycle over the prefixes left
//            active at stream end, single-origin prefixes only, dated inside
//            the window — every alarm rule runs on every event but none can
//            fire, so state and memory stay bounded while the rate is
//            measured. This is the headline events/s-per-core number.
//
//   serve    compact() the live state into a snapshot (the zero-downtime
//            publish artifact) and time it.
//
// Alarm latency is read back from the publisher's own obs histogram
// (droplens_stream_ingest_alarm_latency_ns), p50/p99 via
// Histogram::quantile — resolution is the log2 bucket width.
//
//   $ ./bench_perf_stream [--small] [--seed=N] [--churn=N]
//
// --churn takes any count from 1; any other value or flag prints the usage
// line and exits 2 before the world is generated.
#include <chrono>
#include <cstring>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/alarms.hpp"
#include "obs/metrics.hpp"
#include "sim/event_replayer.hpp"
#include "stream/publisher.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

using namespace droplens;

namespace {

bool same_alarms(const std::vector<core::Alarm>& a,
                 const std::vector<core::Alarm>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].prefix != b[i].prefix ||
        a[i].monitored != b[i].monitored || a[i].when != b[i].when ||
        a[i].new_origin != b[i].new_origin || a[i].on_drop != b[i].on_drop) {
      return false;
    }
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string rate(double events, double secs) {
  return util::fixed(events / secs / 1e6, 2) + " M events/s";
}

int usage() {
  std::cerr << "usage: bench_perf_stream [--small] [--seed=N] [--churn=N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t churn = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (bench::Harness::reads(arg)) {
        // --small and --seed=, validated by bench::Harness::make
      } else if (std::strncmp(arg, "--churn=", 8) == 0) {
        churn = util::parse_number<uint64_t>(arg + 8, 1);
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      }
    } catch (const ParseError& e) {
      std::cerr << arg << ": " << e.what() << "\n";
      return usage();
    }
  }

  obs::Registry registry;
  obs::ScopedRegistry scoped(registry);

  bench::Harness h = bench::Harness::make(argc, argv, {"--churn="});
  const sim::ScenarioConfig& config = h.world->config;

  std::cerr << "[lowering world to event stream...]\n";
  sim::EventReplayer replayer(*h.world);

  stream::AlarmMonitor::Config monitor_config;
  monitor_config.window_begin = config.window_begin;
  monitor_config.window_end = config.window_end;
  monitor_config.drop = &h.world->drop;
  stream::Publisher publisher(monitor_config);
  publisher.seed_rir(h.world->registry);

  // Phase 1: full-history replay.
  auto t0 = std::chrono::steady_clock::now();
  for (const stream::Event& e : replayer.events()) publisher.ingest(e);
  const double replay_secs = seconds_since(t0);

  // Online == batch, alarm for alarm, before any number is reported.
  core::AlarmResult batch = core::analyze_alarms(*h.study, h.index);
  if (!same_alarms(publisher.monitor().alarms(), batch.alarms)) {
    std::cerr << "bench_perf_stream: FAIL — online alarm stream diverges "
                 "from the batch replay ("
              << publisher.monitor().alarms().size() << " vs "
              << batch.alarms.size() << " alarms)\n";
    return 1;
  }

  // Phase 2: sustained churn over single-origin active prefixes (see top
  // comment for why no alarms can fire). The pattern is announce/withdraw
  // pairs, so live state is identical before and after.
  std::vector<stream::Event> pattern;
  for (const net::Prefix& p : h.world->fleet.announced_prefixes()) {
    uint32_t origin = 0;
    bool single = true;
    for (const bgp::Episode& e : h.world->fleet.episodes(p)) {
      if (e.range.end != net::DateRange::unbounded()) continue;
      const uint32_t o = e.origin().value();
      if (origin != 0 && o != origin) {
        single = false;
        break;
      }
      origin = o;
    }
    if (!single || origin == 0) continue;
    stream::Event e;
    e.date = config.window_end + -1;
    e.prefix = p;
    e.value = origin;
    e.type = stream::EventType::kBgpAnnounce;
    pattern.push_back(e);
    e.type = stream::EventType::kBgpWithdraw;
    pattern.push_back(e);
  }
  if (pattern.empty()) {
    std::cerr << "bench_perf_stream: no active single-origin prefixes to "
                 "churn\n";
    return 1;
  }
  const size_t alarms_before_churn = publisher.monitor().alarms().size();
  t0 = std::chrono::steady_clock::now();
  for (size_t k = 0; k < churn; ++k) {
    publisher.ingest(pattern[k % pattern.size()]);
    if ((k & 0x3ffff) == 0x3ffff) publisher.trim(size_t{1} << 16);
  }
  const double churn_secs = seconds_since(t0);
  if (publisher.monitor().alarms().size() != alarms_before_churn) {
    std::cerr << "bench_perf_stream: FAIL — churn workload raised alarms; "
                 "the measured rate would be polluted by alarm growth\n";
    return 1;
  }

  // Phase 3: compact the live state into the publish artifact.
  t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const svc::Snapshot> head =
      publisher.compact(config.window_end, 1);
  const double compact_secs = seconds_since(t0);

  obs::Histogram latency =
      obs::histogram("droplens_stream_ingest_alarm_latency_ns",
                     obs::Registry::log2_bounds(39));

  std::cout << "\n=== Streaming ingest performance ===\n";
  util::TextTable table({"phase", "events", "wall", "rate"});
  table.add_row({"replay (full history + alarms)",
                 std::to_string(replayer.size()),
                 util::fixed(replay_secs * 1e3, 1) + " ms",
                 rate(static_cast<double>(replayer.size()), replay_secs)});
  table.add_row({"churn (sustained, 1 core)", std::to_string(churn),
                 util::fixed(churn_secs * 1e3, 1) + " ms",
                 rate(static_cast<double>(churn), churn_secs)});
  table.print(std::cout);

  std::cout << "\nonline alarms:            " << batch.alarms.size()
            << " (identical to batch replay)\n"
            << "ingest-to-alarm latency:  p50 <= " << latency.quantile(0.5)
            << " ns, p99 <= " << latency.quantile(0.99)
            << " ns (log2 buckets)\n"
            << "compact() to snapshot:    "
            << util::fixed(compact_secs * 1e3, 2) << " ms ("
            << head->routed().interval_count() << " routed intervals)\n";

  const double churn_rate = static_cast<double>(churn) / churn_secs;
  std::cout << "\nsustained apply rate "
            << (churn_rate >= 1e6 ? "meets" : "MISSES")
            << " the 1M events/s/core target\n";
  return churn_rate >= 1e6 ? 0 : 1;
}
