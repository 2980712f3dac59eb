// Persistence-path benchmark: what does a daemon restart cost with and
// without a snapshot directory?
//
// Measures, for one study date of the generated world:
//   - cold compile   engine compile with a fresh SnapshotCache, which
//                    builds its lifetime tables first (first touch of a
//                    date after process start, no .dls file)
//   - tables-built compile
//                    compile with the cache's tables already built; the
//                    cache keeps no day, so every set is computed again
//                    (any compile in a daemon after its first)
//   - serialize      snapshot → .dls bytes in memory
//   - save           serialize + atomic write-through to disk
//   - mmap load      load_snapshot: map + validate header/CRCs/invariants
//                    (the restart path when a .dls exists)
//   - lookup parity  per-lookup latency over the compiled (owned arrays)
//                    and loaded (mmap views) snapshot, same probe set
//
//   $ ./bench_perf_snapshot_io [--small] [--seed=N] [--iters=N] [--threads=N]
//
// --iters takes any count from 1, --threads 1..1024; any other value or
// flag prints the usage line and exits 2 before the world is generated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/snapshot_cache.hpp"
#include "net/prefix.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace droplens;

namespace {

using Clock = std::chrono::steady_clock;

double median_us(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

template <typename F>
std::vector<double> time_us(int iters, F&& body) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    auto t0 = Clock::now();
    body();
    auto t1 = Clock::now();
    out.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return out;
}

int usage() {
  std::cerr << "usage: bench_perf_snapshot_io [--small] [--seed=N] "
               "[--iters=N] [--threads=1..1024]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 20;
  unsigned threads = util::ThreadPool::default_thread_count();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (bench::Harness::reads(arg)) {
        // --small and --seed=, validated by bench::Harness::make
      } else if (std::strncmp(arg, "--iters=", 8) == 0) {
        iters = util::parse_number<int32_t>(arg + 8, 1);
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

  bench::Harness h =
      bench::Harness::make(argc, argv, {"--iters=", "--threads="});
  util::ThreadPool pool(threads);
  h.study->pool = &pool;
  net::Date date = h.study->window_begin + 60;

  // Cold: a fresh cache per compile, the way a just-started daemon with no
  // snapshot directory pays for its first date.
  std::vector<double> cold_us = time_us(iters, [&] {
    core::SnapshotCache cache(h.world->registry, h.world->fleet,
                              h.world->roas, h.world->drop, &h.world->irr);
    h.study->snapshots = &cache;
    auto snap = svc::compile_snapshot(*h.study, h.index, date, 1);
    h.study->snapshots = nullptr;
  });

  // Tables built: one cache kept across compiles. The harness's own cache
  // has not served a query yet; this first compile builds its tables.
  h.study->snapshots = h.cache.get();
  auto snap = svc::compile_snapshot(*h.study, h.index, date, 1);
  std::vector<double> built_us = time_us(iters, [&] {
    auto again = svc::compile_snapshot(*h.study, h.index, date, 1);
  });

  const std::string bytes = svc::serialize_snapshot(*snap);
  std::vector<double> ser_us = time_us(iters, [&] {
    std::string b = svc::serialize_snapshot(*snap);
    if (b.size() != bytes.size()) std::abort();
  });

  char dir[] = "/tmp/droplens_bench_XXXXXX";
  if (!mkdtemp(dir)) return 1;
  const std::string path = std::string(dir) + "/bench.dls";
  std::vector<double> save_us =
      time_us(iters, [&] { svc::save_snapshot(*snap, path); });

  std::vector<double> load_us = time_us(iters, [&] {
    auto loaded = svc::load_snapshot(path, 1);
    if (loaded->date() != date) std::abort();
  });

  // Per-lookup parity: owned arrays vs mmap views over the same probes.
  auto loaded = svc::load_snapshot(path, 1);
  std::vector<net::Prefix> probes;
  for (const core::DropEntry& e : h.index.entries()) probes.push_back(e.prefix);
  for (uint32_t octet = 1; octet < 224; ++octet) {
    probes.push_back(net::Prefix(net::Ipv4(octet << 24 | 0x00010000), 16));
  }
  auto lookup_ns = [&](const svc::Snapshot& s) {
    auto t0 = Clock::now();
    uint64_t sink = 0;
    for (int rep = 0; rep < 200; ++rep) {
      for (const net::Prefix& p : probes) {
        sink += s.lookup(p, svc::kAllFields).status;
      }
    }
    auto t1 = Clock::now();
    (void)sink;
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (200.0 * static_cast<double>(probes.size()));
  };
  double owned_ns = lookup_ns(*snap);
  double view_ns = lookup_ns(*loaded);

  double save_mb_s = (static_cast<double>(bytes.size()) / (1 << 20)) /
                     (median_us(save_us) / 1e6);
  std::printf("\n=== snapshot persistence (date %s, %zu bytes, %u threads, "
              "%d iters, medians) ===\n",
              date.to_string().c_str(), bytes.size(), threads, iters);
  std::printf("%-28s %12.1f us\n", "cold compile", median_us(cold_us));
  std::printf("%-28s %12.1f us\n", "tables-built compile",
              median_us(built_us));
  std::printf("%-28s %12.1f us\n", "serialize", median_us(ser_us));
  std::printf("%-28s %12.1f us  (%.0f MB/s)\n", "save (write-through)",
              median_us(save_us), save_mb_s);
  std::printf("%-28s %12.1f us\n", "mmap load (validated)",
              median_us(load_us));
  std::printf("%-28s %12.1f x\n", "restart speedup (cold/load)",
              median_us(cold_us) / median_us(load_us));
  std::printf("%-28s %12.1f ns\n", "lookup, owned arrays", owned_ns);
  std::printf("%-28s %12.1f ns\n", "lookup, mmap views", view_ns);

  std::remove(path.c_str());
  std::remove(dir);
  return 0;
}
