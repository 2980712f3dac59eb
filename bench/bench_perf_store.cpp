// SnapshotStore benchmark: the costs behind whole-window serving.
//
// Measures, over the first --days dates of the generated world's window:
//   - fill            compile + write-through save of every day (cold dir)
//   - directory size  all-keyframe vs delta-encoded (keyframe every K days)
//                     — the ratio the delta format exists for
//   - chain resolve   fresh store over the delta directory, days resolved
//                     in ascending order (each delta applies against its
//                     resident predecessor) and the worst case: the last
//                     day of a chain from a completely cold store
//   - keyframe load   plain validated mmap load, for comparison
//   - hit throughput  T threads hammering get() on resident days
//   - miss shadow     get() latency for a resident day WHILE another
//                     thread compiles a missing one — the per-date-latch
//                     payoff; under the old store-wide mutex this was the
//                     full compile time
//
//   $ ./bench_perf_store [--small] [--seed=N] [--days=N] [--threads=N]
//                        [--keyframe-every=K]
//
// --days and --keyframe-every take any count from 2, --threads 1..1024;
// any other value or flag prints the usage line and exits 2 before the
// world is generated.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "net/date.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace droplens;

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

int usage() {
  std::cerr << "usage: bench_perf_store [--small] [--seed=N] [--days=2..] "
               "[--threads=1..1024] [--keyframe-every=2..]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int days = 30;
  unsigned threads = util::ThreadPool::default_thread_count();
  int keyframe_every = 7;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (bench::Harness::reads(arg)) {
        // --small and --seed=, validated by bench::Harness::make
      } else if (std::strncmp(arg, "--days=", 7) == 0) {
        days = util::parse_number<int32_t>(arg + 7, 2);
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        threads = util::parse_number<uint32_t>(arg + 10, 1, 1024);
      } else if (std::strncmp(arg, "--keyframe-every=", 17) == 0) {
        keyframe_every = util::parse_number<int32_t>(arg + 17, 2);
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      }
    } catch (const ParseError& e) {
      std::cerr << arg << ": " << e.what() << "\n";
      return usage();
    }
  }

  bench::Harness h = bench::Harness::make(
      argc, argv, {"--days=", "--threads=", "--keyframe-every="});
  util::ThreadPool pool(threads);
  h.study->pool = &pool;

  char buf_key[] = "/tmp/droplens_store_key_XXXXXX";
  char buf_dlt[] = "/tmp/droplens_store_dlt_XXXXXX";
  if (!mkdtemp(buf_key) || !mkdtemp(buf_dlt)) return 1;
  const std::string dir_key = buf_key;
  const std::string dir_dlt = buf_dlt;

  // Fill: compile + write-through save of every day.
  svc::SnapshotStore::Config fill_cfg;
  fill_cfg.dir = dir_key;
  fill_cfg.max_resident = static_cast<size_t>(days) + 2;
  svc::SnapshotStore fill(fill_cfg, h.study.get(), &h.index);
  std::vector<net::Date> dates;
  for (int i = 0; i < days; ++i) dates.push_back(h.study->window_begin + 1 + i);
  auto t0 = Clock::now();
  for (net::Date d : dates) {
    if (!fill.get(d)) return 1;
  }
  const double fill_ms = ms_since(t0);

  // Delta-encode into a second directory: every K-th day a keyframe, the
  // rest patches over their predecessor (what `snapshot_tool delta` does).
  std::shared_ptr<const svc::Snapshot> prev;
  t0 = Clock::now();
  for (size_t i = 0; i < dates.size(); ++i) {
    auto snap = fill.get(dates[i]);
    const std::string path =
        dir_dlt + "/" + svc::SnapshotStore::file_name(dates[i]);
    if (i % static_cast<size_t>(keyframe_every) == 0) {
      svc::save_snapshot(*snap, path);
    } else {
      svc::save_snapshot_delta(*snap, *prev, path);
    }
    prev = snap;
  }
  const double encode_ms = ms_since(t0);
  prev.reset();
  const uint64_t key_bytes = dir_bytes(dir_key);
  const uint64_t dlt_bytes = dir_bytes(dir_dlt);

  // Chain resolution: a fresh disk-only store over the delta directory,
  // ascending (each day's base is resident when it loads)...
  svc::SnapshotStore::Config ro_cfg;
  ro_cfg.dir = dir_dlt;
  ro_cfg.max_resident = static_cast<size_t>(days) + 2;
  ro_cfg.save_compiled = false;
  svc::SnapshotStore ascend(ro_cfg, nullptr, nullptr);
  t0 = Clock::now();
  for (net::Date d : dates) {
    if (!ascend.get(d)) return 1;
  }
  const double ascend_ms = ms_since(t0);

  // ...and the worst case: the deepest day of the last full chain from a
  // completely cold store (keyframe + K-1 patch hops in one get()).
  const size_t last_anchor =
      ((dates.size() - 1) / static_cast<size_t>(keyframe_every)) *
      static_cast<size_t>(keyframe_every);
  const net::Date deepest = dates.back();
  std::vector<double> chain_ms;
  for (int i = 0; i < 9; ++i) {
    svc::SnapshotStore cold(ro_cfg, nullptr, nullptr);
    auto c0 = Clock::now();
    if (!cold.get(deepest)) return 1;
    chain_ms.push_back(ms_since(c0));
  }

  // Keyframe mmap load, for scale.
  std::vector<double> key_ms;
  for (int i = 0; i < 9; ++i) {
    auto c0 = Clock::now();
    auto loaded = svc::load_snapshot(
        dir_key + "/" + svc::SnapshotStore::file_name(dates.back()), 1);
    key_ms.push_back(ms_since(c0));
    if (loaded->date() != dates.back()) return 1;
  }

  // Hit throughput: everything resident, T threads round-robin the days.
  constexpr int kGetsPerThread = 200000;
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> workers;
  t0 = Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t local = 0;
      for (int i = 0; i < kGetsPerThread; ++i) {
        local += ascend.get(dates[(t + static_cast<unsigned>(i)) %
                                  dates.size()]) != nullptr;
      }
      sink.fetch_add(local);
    });
  }
  for (std::thread& w : workers) w.join();
  const double hit_s = ms_since(t0) / 1e3;
  const double gets_per_s =
      static_cast<double>(threads) * kGetsPerThread / hit_s;
  if (sink.load() != uint64_t{threads} * kGetsPerThread) return 1;

  // Miss shadow: one thread compiles a day that exists nowhere while the
  // main thread keeps get()ing a resident one. The worst hit latency seen
  // during the compile is the contention the latch split removed.
  const net::Date missing = h.study->window_begin + days + 30;
  const net::Date hot = dates.front();
  std::atomic<bool> compiling{true};
  double compile_ms = 0;
  std::thread misser([&] {
    auto c0 = Clock::now();
    fill.get(missing);
    compile_ms = ms_since(c0);
    compiling.store(false);
  });
  std::vector<double> shadow_ms;
  while (compiling.load()) {
    auto c0 = Clock::now();
    if (!fill.get(hot)) return 1;
    shadow_ms.push_back(ms_since(c0));
  }
  misser.join();
  double shadow_worst = 0;
  for (double v : shadow_ms) shadow_worst = std::max(shadow_worst, v);

  std::printf("\n=== snapshot store (%d days, keyframe every %d, %u threads) "
              "===\n",
              days, keyframe_every, threads);
  std::printf("%-34s %12.0f ms\n", "fill (compile+save all days)", fill_ms);
  std::printf("%-34s %12.0f ms\n", "delta-encode directory", encode_ms);
  std::printf("%-34s %12.2f MiB\n", "directory, all keyframes",
              static_cast<double>(key_bytes) / (1 << 20));
  std::printf("%-34s %12.2f MiB\n", "directory, delta-encoded",
              static_cast<double>(dlt_bytes) / (1 << 20));
  std::printf("%-34s %12.1f x\n", "delta compression ratio",
              static_cast<double>(key_bytes) /
                  static_cast<double>(dlt_bytes ? dlt_bytes : 1));
  std::printf("%-34s %12.2f ms\n", "resolve all days, ascending",
              ascend_ms);
  std::printf("%-34s %12.2f ms  (%zu hops)\n",
              "cold chain resolve, deepest day", median(chain_ms),
              dates.size() - last_anchor);
  std::printf("%-34s %12.2f ms\n", "keyframe mmap load", median(key_ms));
  std::printf("%-34s %12.0f gets/s\n", "resident-hit throughput",
              gets_per_s);
  std::printf("%-34s %12.2f ms  (compile took %.0f ms, %zu hits)\n",
              "worst hit latency during a miss", shadow_worst, compile_ms,
              shadow_ms.size());

  std::error_code ec;
  fs::remove_all(dir_key, ec);
  fs::remove_all(dir_dlt, ec);
  return 0;
}
