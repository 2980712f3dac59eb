// snapshot_tool: compile, inspect, verify, and re-encode .dls files.
//
//   $ ./snapshot_tool compile --dir=DIR [--small] [--seed=N] [--threads=N]
//                             [--start=OFFSET] [--days=N] [--stride=DAYS]
//       Generate the world once, then compile-and-save one snapshot per
//       date (window_begin + start + i*stride) through a SnapshotStore —
//       exactly the files a droplensd --snapshot-dir=DIR restart mmaps.
//       Every date must fall inside the study window; a date outside it, or
//       a flag value that is not an integer in range, exits 2 with the
//       usage line before the world is generated.
//       compile, delta and expand accept only the flags listed for them:
//       any other argument (a misspelt flag, or a value after a space
//       instead of `=`) exits 2 with the usage line before any file is read
//       or any world is generated.
//
//   $ ./snapshot_tool delta --dir=DIR [--keyframe-every=K]
//       Re-encode the directory in place as delta chains: every Kth file
//       (date order; default 7) stays a keyframe, every other file becomes
//       a patch over the previous date present in the directory. Consecutive
//       days share almost everything, so the directory typically shrinks
//       5-20x. Idempotent; prints the before/after byte ratio.
//
//   $ ./snapshot_tool expand --dir=DIR
//       The inverse: rewrite every delta file as a self-contained keyframe.
//
//   $ ./snapshot_tool inspect FILE...
//       Validate each file's header (magic, version, CRC, layout) and print
//       it: kind, date (and base date for deltas), degraded feeds, writer
//       version, and the segment table.
//
//   $ ./snapshot_tool verify FILE...
//       Full hostile-input validation: load each file (header + every
//       segment CRC + structural invariants); deltas are reconstructed over
//       their base chain, resolved through sibling YYYYMMDD.dls files, so a
//       delta must sit at its own canonical name. Exit 1 if any file fails.
//
//   $ ./snapshot_tool diff A.dls B.dls [--quiet]
//       Lower the two compiled days into the ordered stream::Event sequence
//       transforming A into B (stream/snapshot_diff.hpp) — the same currency
//       the live delta protocol ships. Prints one event per line (--quiet
//       prints only the summary), then replays the sequence onto A and
//       verifies the result is structurally identical to B. Exit 1 if the
//       round-trip check fails.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "obs/log.hpp"
#include "sim/generator.hpp"
#include "stream/snapshot_diff.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace droplens;

namespace {

int usage() {
  DLOG_ERROR(
      "usage: snapshot_tool compile --dir=DIR [--small] [--seed=N] "
      "[--threads=N] [--start=OFFSET] [--days=N] [--stride=DAYS] | "
      "delta --dir=DIR [--keyframe-every=K] | expand --dir=DIR | "
      "inspect FILE... | verify FILE... | diff A.dls B.dls [--quiet]");
  return 2;
}

int unknown_argument(const char* arg) {
  DLOG_ERROR("unknown argument", {{"argument", arg}});
  return usage();
}

/// Parse the value of `--flag=VALUE` (`arg` points at VALUE) as a whole
/// decimal integer in [lo, hi]; false (after logging why) on anything else.
bool int_flag(const char* arg, int64_t lo, int64_t hi, int64_t* out) {
  try {
    *out = util::parse_number<int64_t>(arg, lo, hi);
    return true;
  } catch (const ParseError& e) {
    DLOG_ERROR("flag expects an integer", {{"error", e.what()}});
    return false;
  }
}

uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  uint64_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

int run_compile(int argc, char** argv) {
  std::string dir;
  bool small = false;
  int64_t seed = 0;
  int64_t threads = util::ThreadPool::default_thread_count();
  int64_t start = 60;
  int64_t days = 1;
  int64_t stride = 30;
  constexpr int64_t kMaxDays = 1 << 20;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strncmp(arg, "--dir=", 6) == 0) {
      dir = arg + 6;
    } else if (std::strcmp(arg, "--small") == 0) {
      small = true;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      ok = int_flag(arg + 7, 0, INT64_MAX, &seed);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      ok = int_flag(arg + 10, 0, 1024, &threads);
    } else if (std::strncmp(arg, "--start=", 8) == 0) {
      ok = int_flag(arg + 8, -kMaxDays, kMaxDays, &start);
    } else if (std::strncmp(arg, "--days=", 7) == 0) {
      ok = int_flag(arg + 7, 1, kMaxDays, &days);
    } else if (std::strncmp(arg, "--stride=", 9) == 0) {
      ok = int_flag(arg + 9, 1, kMaxDays, &stride);
    } else {
      return unknown_argument(arg);
    }
    if (!ok) return usage();
  }
  if (dir.empty()) return usage();

  sim::ScenarioConfig config =
      small ? sim::ScenarioConfig::small() : sim::ScenarioConfig{};
  if (seed) config.seed = static_cast<uint64_t>(seed);
  // The store compiles only dates inside the study window; refuse the rest
  // here, before the world is generated.
  const int64_t window_days = config.window_end - config.window_begin;
  const int64_t last_offset = start + (days - 1) * stride;
  if (start < 0 || last_offset > window_days) {
    DLOG_ERROR("dates fall outside the study window",
               {{"first_offset", std::to_string(start)},
                {"last_offset", std::to_string(last_offset)},
                {"window_days", std::to_string(window_days)}});
    return usage();
  }
  DLOG_INFO("generating world",
            {{"scale", small ? "small" : "paper-scale"}});
  auto world = sim::generate(config);
  util::ThreadPool pool(static_cast<unsigned>(threads));
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,  world->roas,
                    world->drop,     world->sbl,   config.window_begin,
                    config.window_end};
  study.pool = &pool;
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);

  svc::SnapshotStore::Config store_config;
  store_config.dir = dir;
  store_config.max_resident = 1;  // compile-and-save, no need to keep days
  svc::SnapshotStore store(store_config, &study, &index);
  for (int64_t i = 0; i < days; ++i) {
    net::Date d = config.window_begin + static_cast<int32_t>(start + i * stride);
    std::shared_ptr<const svc::Snapshot> snap = store.get(d);
    std::cout << store.path_for(d) << ": date " << snap->date().to_string()
              << ", version " << snap->version() << ", degraded 0x" << std::hex
              << unsigned(snap->degraded()) << std::dec << "\n";
  }
  svc::SnapshotStore::Stats stats = store.stats();
  DLOG_INFO("compile done",
            {{"compiled", std::to_string(stats.compiles)},
             {"saved", std::to_string(stats.saves)},
             {"already_on_disk", std::to_string(stats.loads)}});
  return 0;
}

int run_delta(int argc, char** argv) {
  std::string dir;
  int64_t keyframe_every = 7;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--dir=", 6) == 0) {
      dir = arg + 6;
    } else if (std::strncmp(arg, "--keyframe-every=", 17) == 0) {
      if (!int_flag(arg + 17, 1, 1 << 20, &keyframe_every)) return usage();
    } else {
      return unknown_argument(arg);
    }
  }
  if (dir.empty()) return usage();

  // Disk-only store: resolves whatever mix of keyframes and deltas the
  // directory holds now (re-running with a different K is fine). Residency
  // covers one chain plus the working pair so bases resolve from memory.
  svc::SnapshotStore::Config store_config;
  store_config.dir = dir;
  store_config.max_resident = static_cast<size_t>(keyframe_every) + 2;
  store_config.save_compiled = false;
  svc::SnapshotStore store(store_config);
  std::vector<net::Date> dates = store.on_disk();
  if (dates.empty()) {
    DLOG_ERROR("no .dls files in directory", {{"dir", dir}});
    return 1;
  }
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  std::shared_ptr<const svc::Snapshot> prev;
  for (size_t i = 0; i < dates.size(); ++i) {
    std::string path = store.path_for(dates[i]);
    std::shared_ptr<const svc::Snapshot> snap = store.get(dates[i]);
    bytes_before += file_bytes(path);
    if (i % static_cast<size_t>(keyframe_every) == 0) {
      // Chain anchor: every Kth file stays (or becomes again) a keyframe.
      if (svc::snapshot_file_kind(path) != svc::SnapshotFileKind::kKeyframe) {
        svc::save_snapshot(*snap, path);
      }
    } else {
      svc::save_snapshot_delta(*snap, *prev, path);
    }
    bytes_after += file_bytes(path);
    prev = std::move(snap);
  }
  DLOG_INFO("re-encoded directory as delta chains",
            {{"files", std::to_string(dates.size())},
             {"bytes_before", std::to_string(bytes_before)},
             {"bytes_after", std::to_string(bytes_after)},
             {"ratio",
              std::to_string(bytes_after
                                 ? static_cast<double>(bytes_before) /
                                       static_cast<double>(bytes_after)
                                 : 0.0)}});
  return 0;
}

int run_expand(int argc, char** argv) {
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dir=", 6) != 0) return unknown_argument(argv[i]);
    dir = argv[i] + 6;
  }
  if (dir.empty()) return usage();

  svc::SnapshotStore::Config store_config;
  store_config.dir = dir;
  store_config.max_resident = 4;
  store_config.save_compiled = false;
  svc::SnapshotStore store(store_config);
  size_t expanded = 0;
  int failures = 0;
  for (net::Date d : store.on_disk()) {
    std::string path = store.path_for(d);
    try {
      if (svc::snapshot_file_kind(path) != svc::SnapshotFileKind::kDelta) {
        continue;
      }
      // Ascending date order means every base this chain needs is either
      // already expanded or still resolvable — either way get() serves it.
      std::shared_ptr<const svc::Snapshot> snap = store.get(d);
      svc::save_snapshot(*snap, path);
      ++expanded;
    } catch (const svc::SnapshotFormatError& e) {
      std::cout << path << ": REJECTED [" << to_string(e.code()) << "] "
                << e.what() << "\n";
      ++failures;
    }
  }
  DLOG_INFO("expanded delta files to keyframes",
            {{"expanded", std::to_string(expanded)}});
  return failures ? 1 : 0;
}

void print_segment_table(const svc::SegmentDesc* segments) {
  std::printf("  %-10s %10s %10s %8s %6s %10s\n", "segment", "offset",
              "length", "count", "elem", "crc32c");
  for (size_t s = 0; s < svc::kSnapshotSegmentCount; ++s) {
    const svc::SegmentDesc& sd = segments[s];
    std::printf("  %-10s %10" PRIu64 " %10" PRIu64 " %8" PRIu64
                " %6u %10x\n",
                std::string(to_string(static_cast<svc::SnapshotSegment>(s)))
                    .c_str(),
                sd.offset, sd.length, sd.count(), sd.elem_size, sd.crc32c);
  }
}

void print_degraded(uint8_t degraded) {
  std::cout << "  degraded feeds:";
  if (degraded == 0) std::cout << " none";
  for (core::Feed f : core::kAllFeeds) {
    if (degraded & (1u << static_cast<unsigned>(f))) {
      std::cout << " " << to_string(f);
    }
  }
}

int run_inspect(int argc, char** argv) {
  if (argc < 3) return usage();
  int failures = 0;
  for (int i = 2; i < argc; ++i) {
    try {
      if (svc::snapshot_file_kind(argv[i]) == svc::SnapshotFileKind::kDelta) {
        svc::SnapshotDeltaHeader h = svc::read_snapshot_delta_header(argv[i]);
        std::cout << argv[i] << ":\n"
                  << "  delta (format version " << h.format_version
                  << "), date " << net::Date(h.date_days).to_string()
                  << " over base " << net::Date(h.base_date_days).to_string()
                  << ", writer version " << h.writer_version << "\n";
        print_degraded(h.degraded);
        std::printf("\n  %" PRIu64 " bytes, header CRC32C %08x\n",
                    h.file_length, h.header_crc32c);
        print_segment_table(h.segments);
        continue;
      }
      svc::SnapshotHeader h = svc::read_snapshot_header(argv[i]);
      std::cout << argv[i] << ":\n"
                << "  keyframe (format version " << h.format_version
                << "), date " << net::Date(h.date_days).to_string()
                << ", writer version " << h.writer_version << "\n";
      print_degraded(h.degraded);
      std::printf("\n  %" PRIu64 " bytes, header CRC32C %08x\n",
                  h.file_length, h.header_crc32c);
      print_segment_table(h.segments);
    } catch (const svc::SnapshotFormatError& e) {
      std::cout << argv[i] << ": REJECTED [" << to_string(e.code()) << "] "
                << e.what() << "\n";
      ++failures;
    }
  }
  return failures ? 1 : 0;
}

/// Load a .dls file of either kind: keyframes directly, deltas through a
/// disk-only store over the file's directory, which resolves the base chain
/// through sibling YYYYMMDD.dls files. The store looks a delta up by its
/// date, so the delta must sit at its own canonical name.
std::shared_ptr<const svc::Snapshot> load_any(const std::string& path) {
  if (svc::snapshot_file_kind(path) == svc::SnapshotFileKind::kKeyframe) {
    return svc::load_snapshot(path, 1);
  }
  const net::Date date(svc::read_snapshot_delta_header(path).date_days);
  const std::filesystem::path file(path);
  std::shared_ptr<const svc::Snapshot> snap;
  if (file.filename() == svc::SnapshotStore::file_name(date)) {
    svc::SnapshotStore::Config store_config;
    store_config.dir =
        file.has_parent_path() ? file.parent_path().string() : ".";
    store_config.save_compiled = false;
    snap = svc::SnapshotStore(store_config).get(date);
  }
  if (!snap) {
    throw svc::SnapshotFormatError(
        svc::SnapshotIoError::kIo,
        "a delta resolves its base chain by date, so it must sit at its "
        "canonical name " +
            svc::SnapshotStore::file_name(date));
  }
  return snap;
}

int run_verify(int argc, char** argv) {
  if (argc < 3) return usage();
  int failures = 0;
  for (int i = 2; i < argc; ++i) {
    try {
      std::shared_ptr<const svc::Snapshot> snap = load_any(argv[i]);
      std::cout << argv[i] << ": OK — date " << snap->date().to_string();
      if (svc::snapshot_file_kind(argv[i]) == svc::SnapshotFileKind::kDelta) {
        svc::SnapshotDeltaHeader h = svc::read_snapshot_delta_header(argv[i]);
        std::cout << " (delta over "
                  << net::Date(h.base_date_days).to_string() << ")";
      }
      std::cout << ", " << snap->routed().interval_count()
                << " routed intervals, " << snap->drop().segment_count()
                << " drop segments\n";
    } catch (const svc::SnapshotFormatError& e) {
      std::cout << argv[i] << ": REJECTED [" << to_string(e.code()) << "] "
                << e.what() << "\n";
      ++failures;
    }
  }
  return failures ? 1 : 0;
}

int run_diff(int argc, char** argv) {
  std::vector<const char*> files;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) return usage();

  std::shared_ptr<const svc::Snapshot> a;
  std::shared_ptr<const svc::Snapshot> b;
  try {
    a = load_any(files[0]);
    b = load_any(files[1]);
  } catch (const svc::SnapshotFormatError& e) {
    DLOG_ERROR("snapshot rejected",
               {{"code", std::string(to_string(e.code()))},
                {"reason", e.what()}});
    return 1;
  }

  std::vector<stream::Event> events = stream::diff_snapshots(*a, *b);
  if (!quiet) {
    for (const stream::Event& e : events) std::cout << e.to_string() << "\n";
  }
  DLOG_INFO("diff computed",
            {{"events", std::to_string(events.size())},
             {"from", a->date().to_string()},
             {"to", b->date().to_string()}});

  // Round-trip: the emitted sequence must actually reproduce B from A.
  svc::Snapshot rebuilt =
      stream::apply_diff(*a, events, b->date(), b->version());
  if (!stream::snapshots_equal(rebuilt, *b)) {
    DLOG_ERROR(
        "round-trip FAILED — replayed diff does not reproduce the target "
        "snapshot");
    return 1;
  }
  DLOG_INFO("round-trip OK (replayed diff reproduces target)",
            {{"target", files[1]}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "compile") == 0) return run_compile(argc, argv);
  if (std::strcmp(argv[1], "delta") == 0) return run_delta(argc, argv);
  if (std::strcmp(argv[1], "expand") == 0) return run_expand(argc, argv);
  if (std::strcmp(argv[1], "inspect") == 0) return run_inspect(argc, argv);
  if (std::strcmp(argv[1], "verify") == 0) return run_verify(argc, argv);
  if (std::strcmp(argv[1], "diff") == 0) return run_diff(argc, argv);
  return usage();
}
