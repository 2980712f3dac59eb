// Full study report: one call regenerates the whole paper as a text
// document (all sections, the Fig 4 timeline, extension analyses).
//
//   $ ./full_report [--full] [--series] [--threads=N] [--trace] > report.md
//
// The report engine parallelizes across the configured thread count
// (--threads, else DROPLENS_THREADS, else hardware_concurrency; 1 forces
// the sequential path). Output is byte-identical for any thread count.
//
// --trace installs an obs::FlightRecorder that keeps every span, and logs
// its /tracez page to stderr afterwards: one "pipeline" trace per span
// (core.write_report and each analysis) with its wall time. stdout — the
// report itself — is byte-identical with and without it.
//
// An unknown flag, or a numeric value that is not a whole number in range,
// prints the usage line and exits 2 before the world is generated.
//
// Fault drill: the DROP substrate can be round-tripped through its text
// archive with deterministic damage before the analyses run —
//
//   $ ./full_report --corrupt=7 --drop-days=2 --lenient > report.md
//
// --corrupt=SEED splices garbage into every other daily snapshot,
// --drop-days=N removes N days entirely, and --lenient ingests the result
// with ParsePolicy::kLenient, attaching the DataQuality ledger so the report
// ends with a "Data quality" section. The same damage without --lenient
// shows the strict behavior: ingestion aborts on the first bad record.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/data_quality.hpp"
#include "core/report.hpp"
#include "drop/feed.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "sim/fault_injector.hpp"
#include "sim/generator.hpp"
#include "util/error.hpp"
#include "util/parse_report.hpp"
#include "util/strings.hpp"

using namespace droplens;

namespace {

int usage() {
  DLOG_ERROR(
      "usage: full_report [--full] [--series] [--threads=N] [--trace] "
      "[--corrupt=SEED] [--drop-days=N] [--lenient]");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool lenient = false;
  bool trace = false;
  std::optional<uint64_t> corrupt_seed;
  int drop_days = 0;
  core::ReportOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strcmp(arg, "--full") == 0) {
        full = true;
      } else if (std::strcmp(arg, "--series") == 0) {
        options.include_series = true;
      } else if (std::strcmp(arg, "--lenient") == 0) {
        lenient = true;
      } else if (std::strcmp(arg, "--trace") == 0) {
        trace = true;
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        options.threads = util::parse_number<uint32_t>(arg + 10, 0, 1024);
      } else if (std::strncmp(arg, "--corrupt=", 10) == 0) {
        corrupt_seed = util::parse_number<uint64_t>(arg + 10);
      } else if (std::strncmp(arg, "--drop-days=", 12) == 0) {
        drop_days = util::parse_number<int32_t>(arg + 12, 0, 1000);
      } else {
        DLOG_ERROR("unknown flag", {{"flag", arg}});
        return usage();
      }
    } catch (const ParseError& e) {
      DLOG_ERROR("flag expects an integer",
                 {{"flag", arg}, {"error", e.what()}});
      return usage();
    }
  }
  sim::ScenarioConfig config =
      full ? sim::ScenarioConfig{} : sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);

  // The rebuilt-from-archive DROP list and its ledger must outlive the study.
  drop::DropList rebuilt;
  core::DataQuality quality;
  bool replayed = corrupt_seed.has_value() || drop_days > 0 || lenient;
  if (replayed) {
    // Round-trip the DROP list through its daily text archive, damaging it
    // on the way, exactly like a real multi-year Firehol mirror gone stale.
    sim::FaultInjector inj(corrupt_seed.value_or(1));
    sim::FaultInjector::DailyArchive archive;
    for (net::Date d = config.window_begin; d <= config.window_end; d += 30) {
      archive.emplace_back(d, drop::write_drop_feed(world->drop, d));
    }
    if (corrupt_seed) {
      for (size_t i = 0; i < archive.size(); i += 2) {
        archive[i].second = inj.garbage_lines(archive[i].second);
      }
    }
    std::vector<net::Date> dropped = inj.drop_days(archive, drop_days);
    inj.shuffle_days(archive);

    util::ParsePolicy policy =
        lenient ? util::ParsePolicy::kLenient : util::ParsePolicy::kStrict;
    std::vector<std::pair<net::Date, std::vector<drop::FeedEntry>>> days;
    try {
      for (const auto& [date, text] : archive) {
        util::ParseReport report(date.to_string() + ".feed");
        days.emplace_back(date, drop::parse_drop_feed(text, policy, &report));
        quality.note_input(core::Feed::kDropFeed, report);
      }
    } catch (const ParseError& e) {
      DLOG_ERROR(
          "strict ingestion aborted (rerun with --lenient to "
          "skip-and-count instead)",
          {{"reason", e.what()}});
      return 1;
    }
    for (net::Date d : dropped) {
      quality.mark_day_unavailable(core::Feed::kDropFeed, d);
    }
    rebuilt = drop::from_daily_feeds(days);
    DLOG_INFO(
        "DROP archive replay",
        {{"days", std::to_string(archive.size())},
         {"records",
          std::to_string(quality.report(core::Feed::kDropFeed).parsed())},
         {"skipped",
          std::to_string(quality.report(core::Feed::kDropFeed).skipped())},
         {"days_dropped", std::to_string(dropped.size())}});
  }

  core::Study study{world->registry, world->fleet,  world->irr,
                    world->roas,     replayed ? rebuilt : world->drop,
                    world->sbl,      config.window_begin, config.window_end};
  if (replayed) study.quality = &quality;
  if (trace) {
    // Timing goes to stderr; the report on stdout stays byte-identical.
    // Every span is sampled; the ring holds the last 256 of them.
    obs::FlightRecorder::Options recorder_options;
    recorder_options.sample_period = 1;
    recorder_options.recent_capacity = 256;
    obs::FlightRecorder recorder(recorder_options);
    {
      obs::ScopedFlightRecorder scoped(recorder);
      core::write_report(std::cout, study, options);
    }
    // The page goes out as one record (newlines escape in both formats);
    // a per-line record would trip the per-site rate limiter mid-dump.
    DLOG_INFO("span trace",
              {{"spans", std::to_string(recorder.finished())},
               {"tracez", recorder.render_tracez()}});
  } else {
    core::write_report(std::cout, study, options);
  }
  return 0;
}
