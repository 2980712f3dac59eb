// Sequential vs. parallel analysis engine on the full-report path.
//
// Runs core::write_report over the same world with 1 engine thread (the old
// sequential behavior), N threads cold (a fresh SnapshotCache, which builds
// its lifetime tables inside the run), and N threads over a cache whose
// tables a prior run built (the cache keeps no day, so every set is computed
// again), then prints the wall-clock speedups. Outputs are cross-checked
// byte-for-byte — a run that broke the determinism contract fails loudly
// rather than report a bogus speedup.
//
//   $ ./bench_perf_engine [--small] [--seed=N] [--threads=N] [--reps=N]
//
// --threads takes 1..1024, --reps any count from 1 and --seed any uint64;
// any other value or flag prints the usage line and exits 2 before the
// world is generated.
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "core/report.hpp"
#include "core/snapshot_cache.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace droplens;

namespace {

double run_report_ms(const core::Study& study,
                     const core::ReportOptions& options, std::string* out) {
  std::ostringstream text;
  auto start = std::chrono::steady_clock::now();
  core::write_report(text, study, options);
  auto stop = std::chrono::steady_clock::now();
  *out = text.str();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

int usage() {
  std::cerr << "usage: bench_perf_engine [--small] [--seed=N] "
               "[--threads=1..1024] [--reps=N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = util::ThreadPool::default_thread_count();
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (bench::Harness::reads(arg)) {
        // --small and --seed=, validated by bench::Harness::make
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        threads = util::parse_number<uint32_t>(arg + 10, 1, 1024);
      } else if (std::strncmp(arg, "--reps=", 7) == 0) {
        reps = util::parse_number<int32_t>(arg + 7, 1);
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
      bench::Harness::make(argc, argv, {"--threads=", "--reps="});

  core::ReportOptions options;
  options.include_series = true;

  // Cold runs leave the harness's cache behind, so write_report builds a
  // fresh one per run.
  core::Study cold = *h.study;
  cold.snapshots = nullptr;

  std::string seq_text, par_text, built_text;
  double seq_ms = 0, par_ms = 0, built_ms = 0;
  for (int rep = 0; rep < reps; ++rep) {
    options.threads = 1;
    seq_ms += run_report_ms(cold, options, &seq_text);

    options.threads = threads;
    par_ms += run_report_ms(cold, options, &par_text);

    // Tables built: one cache across a pool the Study carries; the first
    // run builds its lifetime tables, and the timed second run pays only
    // for the per-day sets.
    util::ThreadPool pool(threads);
    core::SnapshotCache cache(h.world->registry, h.world->fleet,
                              h.world->roas, h.world->drop, &h.world->irr);
    core::Study built = *h.study;
    built.pool = &pool;
    built.snapshots = &cache;
    std::string prime;
    run_report_ms(built, options, &prime);
    built_ms += run_report_ms(built, options, &built_text);

    if (seq_text != par_text || seq_text != built_text) {
      std::cerr << "FATAL: parallel report diverged from sequential run\n";
      return 1;
    }
  }
  seq_ms /= reps;
  par_ms /= reps;
  built_ms /= reps;

  bench::Comparison cmp("engine: sequential vs parallel full report");
  cmp.row("threads", "1", std::to_string(threads));
  cmp.row("sequential ms", seq_ms, seq_ms);
  cmp.row("parallel cold ms", seq_ms, par_ms);
  cmp.row("parallel tables-built ms", seq_ms, built_ms);
  cmp.rule();
  cmp.row("speedup cold", 1.0, seq_ms / par_ms, 2);
  cmp.row("speedup tables-built", 1.0, seq_ms / built_ms, 2);
  cmp.print();
  std::cout << "determinism: sequential, cold and tables-built outputs "
               "identical ("
            << seq_text.size() << " bytes)\n";
  return 0;
}
