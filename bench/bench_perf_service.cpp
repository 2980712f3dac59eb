// Load generator for the query service.
//
// Compiles a snapshot of the generated world, then saturates a svc::Server
// over the in-process loopback transport with single-prefix lookups from N
// client threads, reporting throughput (lookups/sec) and the p50/p99
// response latency. Every response is checked byte-for-byte against the
// expected answer recorded before the run — with --reload the check runs
// while a background thread republishes equal-content snapshots, proving
// responses stay byte-identical across thread counts and through reloads.
//
//   $ ./bench_perf_service [--small] [--seed=N] [--threads=N] [--seconds=S]
//                          [--batch=N] [--reload]
//
// --threads takes 1..1024, --batch 1..kMaxBatch (4096), --seconds any
// number above 0 and --seed any uint64; any other value or flag prints the
// usage line and exits 2 before the world is generated.
//
// `--scale` skips the load generator and runs the full-table regression
// gate instead: a generate_scale() world (1M routed prefixes, or
// DROPLENS_SCALE_PREFIXES), served through svc::Server in kMaxBatch frames,
// best-of-3 fixed-work timing. The batched serving path must (a) answer
// byte-for-byte what the upper_bound reference path answers and (b) hold a
// >= 2x throughput edge over per-query reference lookups — the in-binary
// check that the data plane's full-table speedup never silently regresses.
// Exits 1 on either failure; CI runs it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/rng.hpp"
#include "sim/scale.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace droplens;

namespace {

struct Options {
  unsigned threads = util::ThreadPool::default_thread_count();
  double seconds = 2.0;
  size_t batch = 1;
  bool reload = false;
};

struct Workload {
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  size_t queries_per_request = 1;
};

Workload build_workload(svc::Server& server, const bench::Harness& h,
                        net::Date d, size_t batch) {
  // Probe the spaces the paper cares about: every DROP entry plus a spread
  // of fixed prefixes, chunked into `batch`-sized request frames.
  std::vector<svc::Query> queries;
  for (const core::DropEntry& e : h.index.entries()) {
    queries.push_back(svc::Query{d, e.prefix, svc::kAllFields});
  }
  for (uint32_t octet = 1; octet < 224; ++octet) {
    queries.push_back(svc::Query{
        d, net::Prefix(net::Ipv4(octet << 24 | 0x00010000), 16),
        svc::kAllFields});
  }
  Workload w;
  w.queries_per_request = batch;
  for (size_t begin = 0; begin < queries.size(); begin += batch) {
    size_t end = std::min(queries.size(), begin + batch);
    std::vector<svc::Query> frame(queries.begin() + begin,
                                  queries.begin() + end);
    frame.resize(batch, frame.back());  // uniform frames: constant batch size
    w.requests.push_back(svc::encode_query_request(frame));
    w.expected.push_back(server.serve(w.requests.back()));
  }
  return w;
}

struct ThreadResult {
  uint64_t requests = 0;
  std::vector<uint32_t> latency_ns;
  bool diverged = false;
};

int run_scale_gate() {
  sim::ScaleConfig config;
  if (const char* env = std::getenv("DROPLENS_SCALE_PREFIXES")) {
    config.routed_prefixes =
        static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  std::cerr << "[scale gate: generating " << config.routed_prefixes
            << "-prefix world...]\n";
  auto world = sim::generate_scale(config);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry,
                    world->fleet,
                    world->irr,
                    world->roas,
                    world->drop,
                    world->sbl,
                    world->config.window_begin,
                    world->config.window_end};
  study.snapshots = &cache;
  const core::DropIndex index = core::DropIndex::build(study);
  auto compile_start = std::chrono::steady_clock::now();
  auto snap = svc::compile_snapshot(study, index, config.day, 1);
  double compile_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - compile_start)
                          .count();

  // Probe corpus: routed-interval boundaries interleaved with seeded
  // randoms, packed into maximal frames.
  sim::Rng rng(7);
  const auto ivs = snap->routed().intervals();
  std::vector<svc::Query> queries;
  constexpr size_t kProbes = 1 << 17;
  queries.reserve(kProbes);
  while (queries.size() < kProbes) {
    uint64_t addr;
    if (queries.size() % 2 == 0) {
      const auto& iv = ivs[rng.below(ivs.size())];
      addr = rng.chance(0.5) ? iv.begin : iv.end - 1;
    } else {
      addr = rng.below(uint64_t{1} << 32);
    }
    queries.push_back(svc::Query{
        config.day,
        net::Prefix::containing(net::Ipv4(static_cast<uint32_t>(addr)),
                                8 + static_cast<int>(rng.below(25))),
        svc::kAllFields});
  }
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap);
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  for (size_t begin = 0; begin < queries.size(); begin += svc::kMaxBatch) {
    std::vector<svc::Query> frame(
        queries.begin() + static_cast<std::ptrdiff_t>(begin),
        queries.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(queries.size(), begin + svc::kMaxBatch)));
    requests.push_back(svc::encode_query_request(frame));
    expected.push_back(server.serve(requests.back()));
  }

  // Correctness first: every served answer equals the reference path's.
  for (size_t f = 0, q = 0; f < requests.size(); ++f) {
    const svc::QueryResponse decoded =
        svc::decode_query_response(svc::frame_payload(expected[f]));
    for (const svc::Answer& a : decoded.answers) {
      if (a != snap->lookup_reference(queries[q].prefix, svc::kAllFields)) {
        std::cerr << "FATAL: served answer diverges from the reference at "
                  << queries[q].prefix.to_string() << "\n";
        return 1;
      }
      ++q;
    }
  }

  // Best-of-3 fixed-work timing: frames through the batched server vs the
  // same queries through per-query reference lookups.
  auto best_of_3 = [](auto&& work) {
    double best = std::numeric_limits<double>::max();
    for (int trial = 0; trial < 3; ++trial) {
      const auto start = std::chrono::steady_clock::now();
      work();
      best = std::min(
          best,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
    }
    return best;
  };
  bool diverged = false;
  const double served_s = best_of_3([&] {
    for (size_t f = 0; f < requests.size(); ++f) {
      if (server.serve(requests[f]) != expected[f]) diverged = true;
    }
  });
  uint64_t sink = 0;
  const double reference_s = best_of_3([&] {
    for (const svc::Query& q : queries) {
      sink += snap->lookup_reference(q.prefix, svc::kAllFields).fields;
    }
  });
  if (diverged) {
    std::cerr << "FATAL: responses wobbled between timing trials\n";
    return 1;
  }
  const double n = static_cast<double>(queries.size());
  const double served_rate = n / served_s;
  const double reference_rate = n / reference_s;
  const double speedup = served_rate / reference_rate;
  constexpr double kRequiredSpeedup = 2.0;
  std::cout << "scale gate: " << snap->routed().interval_count()
            << " routed intervals, " << queries.size() << " queries, "
            << "compile " << util::fixed(compile_ms, 0) << " ms\n"
            << "  reference lookups  "
            << util::fixed(reference_rate / 1e6, 2) << " Mlookups/s\n"
            << "  served (batched)   " << util::fixed(served_rate / 1e6, 2)
            << " Mlookups/s (incl. frame codec)\n"
            << "  speedup            " << util::fixed(speedup, 2)
            << "x (required >= " << util::fixed(kRequiredSpeedup, 1) << "x)\n";
  std::cout << "{\"bench\":\"perf_service_scale\",\"prefixes\":"
            << config.routed_prefixes
            << ",\"served_per_sec\":" << static_cast<uint64_t>(served_rate)
            << ",\"reference_per_sec\":"
            << static_cast<uint64_t>(reference_rate)
            << ",\"speedup\":" << util::fixed(speedup, 2)
            << ",\"checksum\":" << sink << "}\n";
  if (speedup < kRequiredSpeedup) {
    std::cerr << "FATAL: batched serving speedup " << util::fixed(speedup, 2)
              << "x regressed below " << kRequiredSpeedup << "x\n";
    return 1;
  }
  return 0;
}

int usage() {
  std::cerr << "usage: bench_perf_service [--small] [--seed=N] "
               "[--threads=1..1024] [--seconds=S] [--batch=1..4096] "
               "[--reload] [--scale]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool scale = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strcmp(arg, "--scale") == 0) {
        scale = true;
      } else if (std::strcmp(arg, "--reload") == 0) {
        opt.reload = true;
      } else if (std::strcmp(arg, "--small") == 0) {
        // read by bench::Harness::make
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        (void)util::parse_number<uint64_t>(arg + 7);  // Harness::make too
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        opt.threads = util::parse_number<uint32_t>(arg + 10, 1, 1024);
      } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
        opt.seconds = util::parse_number<double>(
            arg + 10, std::numeric_limits<double>::denorm_min());
      } else if (std::strncmp(arg, "--batch=", 8) == 0) {
        opt.batch = util::parse_number<uint32_t>(
            arg + 8, 1, static_cast<uint32_t>(svc::kMaxBatch));
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      }
    } catch (const ParseError& e) {
      std::cerr << arg << ": " << e.what() << "\n";
      return usage();
    }
  }
  if (scale) return run_scale_gate();
  bench::Harness h = bench::Harness::make(
      argc, argv, {"--reload", "--threads=", "--seconds=", "--batch="});

  net::Date d = h.study->window_begin + 60;
  std::cerr << "[compiling snapshot...]\n";
  auto compile_start = std::chrono::steady_clock::now();
  auto snap = svc::compile_snapshot(*h.study, h.index, d, 1);
  double compile_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - compile_start)
                          .count();
  // Reload mode republishes equal-content snapshots (fresh compilations, same
  // version) mid-run; responses must not wobble by a byte.
  auto snap_twin = opt.reload ? svc::compile_snapshot(*h.study, h.index, d, 1)
                              : snap;

  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(snap);
  Workload w = build_workload(server, h, d, opt.batch);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reloads{0};
  std::vector<ThreadResult> results(opt.threads);
  std::vector<std::thread> clients;
  clients.reserve(opt.threads);
  auto run_start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < opt.threads; ++t) {
    clients.emplace_back([&, t] {
      ThreadResult& r = results[t];
      r.latency_ns.reserve(1 << 20);
      size_t i = t % w.requests.size();  // spread threads across the corpus
      while (!stop.load(std::memory_order_relaxed)) {
        auto begin = std::chrono::steady_clock::now();
        std::string response = server.serve(w.requests[i]);
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
        if (response != w.expected[i]) r.diverged = true;
        r.latency_ns.push_back(static_cast<uint32_t>(
            std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max())));
        ++r.requests;
        i = (i + 1) % w.requests.size();
      }
    });
  }
  std::thread reloader;
  if (opt.reload) {
    reloader = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        server.publish(reloads.fetch_add(1) % 2 ? snap : snap_twin);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true);
  for (std::thread& c : clients) c.join();
  if (reloader.joinable()) reloader.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - run_start)
                       .count();

  uint64_t total_requests = 0;
  bool diverged = false;
  std::vector<uint32_t> latencies;
  for (ThreadResult& r : results) {
    total_requests += r.requests;
    diverged |= r.diverged;
    latencies.insert(latencies.end(), r.latency_ns.begin(), r.latency_ns.end());
  }
  if (diverged) {
    std::cerr << "FATAL: a response diverged from the recorded expectation\n";
    return 1;
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double q) -> double {
    if (latencies.empty()) return 0;
    size_t idx = static_cast<size_t>(q * static_cast<double>(latencies.size()));
    return static_cast<double>(
               latencies[std::min(idx, latencies.size() - 1)]) /
           1000.0;  // µs
  };
  double lookups_per_sec = static_cast<double>(total_requests) *
                           static_cast<double>(w.queries_per_request) /
                           elapsed;

  bench::Comparison cmp("service: loopback load generator");
  cmp.row("client threads", "-", std::to_string(opt.threads));
  cmp.row("batch (queries/frame)", "-", std::to_string(w.queries_per_request));
  cmp.row("snapshot compile ms", "-", util::fixed(compile_ms, 1));
  cmp.row("frames served", "-", std::to_string(total_requests));
  cmp.row("reloads during run", "-", std::to_string(reloads.load()));
  cmp.rule();
  cmp.row("lookups/sec", "-", util::fixed(lookups_per_sec, 0));
  cmp.row("p50 latency us", "-", util::fixed(pct(0.50), 2));
  cmp.row("p99 latency us", "-", util::fixed(pct(0.99), 2));
  cmp.print();
  std::cout << "determinism: " << total_requests
            << " responses byte-identical to the recorded expectations"
            << (opt.reload ? " through " + std::to_string(reloads.load()) +
                                 " snapshot reloads"
                           : "")
            << "\n";
  // Machine-readable line for EXPERIMENTS.md.
  std::cout << "{\"bench\":\"perf_service\",\"threads\":" << opt.threads
            << ",\"batch\":" << w.queries_per_request
            << ",\"lookups_per_sec\":" << static_cast<uint64_t>(lookups_per_sec)
            << ",\"p50_us\":" << pct(0.50) << ",\"p99_us\":" << pct(0.99)
            << ",\"reloads\":" << reloads.load() << "}\n";

  // Overhead gate: the flight recorder, armed at the production 1/1024
  // sampling, must not tax serving by more than 3%. The gate drives the
  // traced path exactly as a transport does — begin a context per frame,
  // serve through the trace-aware overload, finish — against the untraced
  // loop as the baseline. Frames are production-weight (256 lookups,
  // ~30 µs of work, on par with the wire transport's per-request floor):
  // the trace cost is fixed per frame, so that is the honest denominator —
  // a 0.4 µs single-lookup loopback frame has no wire counterpart.
  // Fixed-work timing, best-of-3 interleaved trials, to keep scheduler
  // noise out of a 3% comparison.
  {
    constexpr double kBudgetPct = 3.0;
    Workload gate = build_workload(server, h, d, 256);
    obs::FlightRecorder::Options armed_options;
    armed_options.sample_period = 1024;
    obs::FlightRecorder recorder(armed_options);
    obs::ScopedFlightRecorder scoped(recorder);
    svc::TraceBinding trace("binary");

    bool gate_diverged = false;
    auto ns_per_frame = [&](bool armed, uint64_t iters) -> double {
      size_t i = 0;
      const auto start = std::chrono::steady_clock::now();
      for (uint64_t n = 0; n < iters; ++n) {
        std::string response;
        if (armed) {
          obs::SpanContext ctx = trace.begin();
          ctx.stage("serve");
          response = server.serve(gate.requests[i], ctx);
          ctx.finish("ok");
        } else {
          response = server.serve(gate.requests[i]);
        }
        if (response != gate.expected[i]) gate_diverged = true;
        i = (i + 1) % gate.requests.size();
      }
      const auto elapsed = std::chrono::steady_clock::now() - start;
      return static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                     .count()) /
             static_cast<double>(iters);
    };

    constexpr uint64_t kWarmup = 500;
    constexpr uint64_t kIters = 10'000;
    ns_per_frame(false, kWarmup);
    ns_per_frame(true, kWarmup);
    double base_ns = std::numeric_limits<double>::max();
    double armed_ns = std::numeric_limits<double>::max();
    for (int trial = 0; trial < 3; ++trial) {
      base_ns = std::min(base_ns, ns_per_frame(false, kIters));
      armed_ns = std::min(armed_ns, ns_per_frame(true, kIters));
    }
    const double overhead_pct = (armed_ns - base_ns) / base_ns * 100.0;
    std::cout << "overhead gate: recorder armed at 1/1024, 256-query frames\n"
              << "  untraced  " << base_ns / 1000.0 << " us/frame\n"
              << "  traced    " << armed_ns / 1000.0 << " us/frame\n"
              << "  overhead  " << overhead_pct << "%  (budget "
              << kBudgetPct << "%)\n";
    if (gate_diverged) {
      std::cerr << "FATAL: a gate response diverged from the expectation\n";
      return 1;
    }
    if (overhead_pct > kBudgetPct) {
      std::cerr << "FATAL: recorder overhead " << overhead_pct
                << "% exceeds the " << kBudgetPct << "% budget\n";
      return 1;
    }
  }

  return lookups_per_sec >= 1'000'000.0 || w.queries_per_request > 1 ? 0 : 2;
}
