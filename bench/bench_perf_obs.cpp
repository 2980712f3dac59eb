// Microbenchmark of the observability layer's record path.
//
// The contract the obs library sells: an uncontended counter increment is a
// single relaxed atomic add (a few ns), a no-op handle costs one branch,
// and a pipeline span costs one atomic load and a branch when no flight
// recorder is installed. This bench measures each, plus the span with a
// recorder installed, the contended case and page rendering, so a
// regression in the hot path shows up as a number — EXPERIMENTS.md records
// the baseline.
//
// The SpanContext rows price the request flight recorder's ladder: an inert
// context (recorder absent), the parked-resume shape the epoll transport
// uses (begin, stage, move across a callback boundary, stage, finish) with
// the recorder armed at the production 1/1024 sampling, and the full-capture
// worst case (every request sampled into the recent ring).
//
//   $ ./bench_perf_obs [--ops=N] [--threads=N]
//
// --ops must be at least 1 and --threads in 1..1024; anything else prints
// the usage line and exits 2.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace droplens;

namespace {

// Keep the compiler from hoisting the measured op out of the loop.
template <typename T>
inline void keep(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Inlined at the call site so only the measured op is in the loop body.
template <typename Op>
double ns_per_op(uint64_t ops, Op&& op) {
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) op();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(ops);
}

void row(const char* name, double ns) {
  std::cout << name << "  " << ns << " ns/op\n";
}

int usage() {
  std::cerr << "usage: bench_perf_obs [--ops=N] [--threads=1..1024]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t ops = 50'000'000;
  unsigned threads = 4;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strncmp(arg, "--ops=", 6) == 0) {
        ops = util::parse_number<uint64_t>(arg + 6, 1);
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        threads = util::parse_number<uint32_t>(arg + 10, 1, 1024);
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      }
    } catch (const ParseError& e) {
      std::cerr << arg << ": " << e.what() << "\n";
      return usage();
    }
  }

  obs::Registry reg;
  obs::Counter counter = reg.counter("bench_total");
  obs::Histogram hist =
      reg.histogram("bench_ns", obs::Registry::log2_bounds(39));
  obs::Counter noop;  // default-constructed: the uninstalled path

  row("counter.inc   (uncontended)",
      ns_per_op(ops, [&counter] { counter.inc(); }));
  row("counter.inc   (no-op handle)",
      ns_per_op(ops, [&noop] { noop.inc(); }));
  row("histogram.observe",
      ns_per_op(ops, [&hist] { hist.observe(1234); }));
  row("span          (no recorder)", ns_per_op(ops, [] {
        obs::Span span("bench");
        keep(span);
      }));
  {
    obs::FlightRecorder recorder;  // droplensd's: 1/1024 sampling
    obs::ScopedFlightRecorder scoped(recorder);
    row("span          (recorder installed)", ns_per_op(ops / 50, [] {
          obs::Span span("bench");
          keep(span);
        }));
  }

  // The flight recorder's per-request ladder. "parked resume" replays the
  // epoll transport's lifecycle: begin on accept, mark a stage, MOVE the
  // context (park it on the connection object, resume in a later callback),
  // mark another stage, finish. Armed-but-unsampled is the production
  // steady state (1/1024); sample_period=1 is the full-capture worst case
  // (ring push + exemplar stamp under the op mutex on every request).
  row("span-context  (inert: no recorder)", ns_per_op(ops, [] {
        obs::SpanContext ctx;
        ctx.stage("read");
        ctx.stage("serve");
        ctx.finish("ok");
        keep(ctx);
      }));
  {
    obs::FlightRecorder::Options armed;
    armed.sample_period = 1024;
    obs::FlightRecorder recorder(armed);
    const uint16_t op = recorder.op_class("bench");
    row("span-context  (parked resume, armed 1/1024)",
        ns_per_op(ops / 50, [&recorder, op] {
          obs::SpanContext ctx = recorder.begin(op);
          ctx.stage("read");
          obs::SpanContext resumed = std::move(ctx);  // park → resume
          resumed.stage("serve");
          resumed.finish("ok");
        }));
    keep(recorder.finished());
  }
  {
    obs::FlightRecorder::Options every;
    every.sample_period = 1;
    obs::FlightRecorder recorder(every);
    const uint16_t op = recorder.op_class("bench");
    row("span-context  (full capture, sampled 1/1)",
        ns_per_op(ops / 50, [&recorder, op] {
          obs::SpanContext ctx = recorder.begin(op);
          ctx.stage("read");
          ctx.stage("serve");
          ctx.finish("ok");
        }));
    keep(recorder.finished());
  }

  {
    // Contended: `threads` workers hammering one cell.
    const uint64_t per_thread = ops / threads;
    std::vector<std::thread> workers;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&counter, per_thread] {
        for (uint64_t i = 0; i < per_thread; ++i) counter.inc();
      });
    }
    for (std::thread& w : workers) w.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        static_cast<double>(per_thread * threads);
    std::cout << "counter.inc   (contended x" << threads << ")  " << ns
              << " ns/op\n";
  }

  {
    // Render a realistically sized page (the droplensd registry is ~40
    // families): time per full exposition.
    for (int f = 0; f < 40; ++f) {
      std::string name = "bench_family_" + std::to_string(f) + "_total";
      for (int s = 0; s < 4; ++s) {
        reg.counter(name, {{"shard", std::to_string(s)}}).inc();
      }
    }
    constexpr int kRenders = 2000;
    const auto start = std::chrono::steady_clock::now();
    size_t bytes = 0;
    for (int i = 0; i < kRenders; ++i) {
      bytes += obs::render_prometheus(reg).size();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    keep(bytes);
    std::cout << "render_prometheus  "
              << std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                         .count() /
                     kRenders
              << " us/page (" << bytes / kRenders << " bytes)\n";
  }

  std::cout << "checksum: counter=" << counter.value()
            << " hist_sum=" << hist.sum() << "\n";
  return 0;
}
