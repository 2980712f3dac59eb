// droplens_perfbench: one seeded workload against the query service, its
// outputs checked, its metrics printed as the last line of stdout.
//
//   droplens_perfbench --workload window|follow --seed N
//                      --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced phase and prints the per-layer metrics. --smoke shrinks every
// workload to a tiny world (seconds of wall time) with every check on, and
// exits non-zero unless the run was correct.
#include <cstring>
#include <iostream>
#include <string>

#include "workloads.hpp"

using namespace droplens::perfbench;

namespace {

int usage() {
  std::cerr << "usage: droplens_perfbench --workload window|follow "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--work-dir" && has_value) {
        options.work_dir = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.seconds <= 0) return usage();

  try {
    Report report;
    if (options.workload == "window") {
      report = run_window(options);
    } else if (options.workload == "follow") {
      report = run_follow(options);
    } else {
      return usage();
    }
    report.print();
    if (options.smoke && !report.correct()) return 1;
  } catch (const std::exception& e) {
    std::cerr << "droplens_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
