// Graceful per-day degradation: when the ingestion ledger (core::DataQuality)
// marks days unavailable, the sampling analyses must skip-and-count those days
// — never throw, never fabricate values — the untouched analyses must produce
// byte-identical output, and the determinism contract (same report for every
// thread count) must survive degradation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/as0_analysis.hpp"
#include "core/data_quality.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "core/roa_status.hpp"
#include "core/snapshot_cache.hpp"
#include "drop/feed.hpp"
#include "sim/fault_injector.hpp"
#include "sim/generator.hpp"
#include "util/parse_report.hpp"

namespace droplens {
namespace {

class DegradationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig(sim::ScenarioConfig::small());
    world_ = sim::generate(*config_).release();
    cache_ = new core::SnapshotCache(world_->registry, world_->fleet,
                                     world_->roas, world_->drop, &world_->irr);
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete world_;
    delete config_;
  }
  core::Study study() const {
    core::Study s{world_->registry,      world_->fleet, world_->irr,
                  world_->roas,          world_->drop,  world_->sbl,
                  config_->window_begin, config_->window_end};
    s.snapshots = cache_;
    return s;
  }
  std::vector<net::Date> sample_dates() const {
    return core::engine::sample_dates(study());
  }
  static sim::ScenarioConfig* config_;
  static sim::World* world_;
  static core::SnapshotCache* cache_;
};

sim::ScenarioConfig* DegradationTest::config_ = nullptr;
sim::World* DegradationTest::world_ = nullptr;
core::SnapshotCache* DegradationTest::cache_ = nullptr;

TEST_F(DegradationTest, RoaStatusSkipsAndCountsUnavailableDays) {
  const std::vector<net::Date> dates = sample_dates();
  ASSERT_GE(dates.size(), 4u);

  core::DataQuality quality;
  quality.mark_day_unavailable(core::Feed::kRoas, dates[1]);
  quality.mark_day_unavailable(core::Feed::kRoas, dates[2]);
  core::Study degraded = study();
  degraded.quality = &quality;

  core::RoaStatusResult clean = analyze_roa_status(study());
  core::RoaStatusResult result = analyze_roa_status(degraded);

  EXPECT_EQ(clean.degraded_samples, 0u);
  EXPECT_EQ(result.degraded_samples, 2u);
  ASSERT_EQ(result.series.size(), dates.size());
  EXPECT_FALSE(result.series[0].degraded);
  EXPECT_TRUE(result.series[1].degraded);
  EXPECT_TRUE(result.series[2].degraded);
  EXPECT_EQ(result.series[1].signed_slash8, 0.0);  // skipped, not fabricated

  // The measured samples match the clean run exactly.
  for (size_t i = 0; i < dates.size(); ++i) {
    if (result.series[i].degraded) continue;
    EXPECT_EQ(result.series[i].signed_slash8, clean.series[i].signed_slash8)
        << i;
  }
  // first()/last() step over degraded samples.
  EXPECT_FALSE(result.first().degraded);
  EXPECT_FALSE(result.last().degraded);
  EXPECT_EQ(result.first().date, dates[0]);
}

TEST_F(DegradationTest, FreePoolSeriesDegradesOnMissingDelegations) {
  const std::vector<net::Date> dates = sample_dates();
  core::DataQuality quality;
  quality.mark_day_unavailable(core::Feed::kDelegations, dates[0]);
  core::Study degraded = study();
  degraded.quality = &quality;

  core::DropIndex index = core::DropIndex::build(degraded);
  core::As0Result result = analyze_as0(degraded, index);
  EXPECT_EQ(result.degraded_samples, 1u);
  ASSERT_FALSE(result.pool_series.empty());
  EXPECT_TRUE(result.pool_series[0].degraded);
  for (double v : result.pool_series[0].pool_slash8) EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(result.pool_series[1].degraded);
}

TEST_F(DegradationTest, LastAvailableDateStepsPastDegradedTail) {
  const std::vector<net::Date> dates = sample_dates();
  core::DataQuality quality;
  quality.mark_day_unavailable(core::Feed::kRoas, dates.back());
  core::Study degraded = study();
  degraded.quality = &quality;

  auto end = core::engine::last_available_date(
      degraded, {core::Feed::kRoas, core::Feed::kBgpUpdates});
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, dates[dates.size() - 2]);

  // With every grid date unavailable there is no fallback date at all —
  // and the analysis still returns (zeroed) instead of throwing.
  core::DataQuality nothing;
  for (net::Date d : dates) {
    nothing.mark_day_unavailable(core::Feed::kRoas, d);
  }
  core::Study dark = study();
  dark.quality = &nothing;
  EXPECT_FALSE(core::engine::last_available_date(dark, {core::Feed::kRoas})
                   .has_value());
  core::RoaStatusResult result = analyze_roa_status(dark);
  EXPECT_EQ(result.degraded_samples, result.series.size());
  EXPECT_TRUE(result.top_signed_unrouted_holders.empty());
}

// The determinism contract survives degradation: skipped days are decided by
// date, and degraded counters aggregate sequentially after the parallel loop.
TEST_F(DegradationTest, ReportIsByteIdenticalAcrossThreadCountsWhenDegraded) {
  const std::vector<net::Date> dates = sample_dates();
  core::DataQuality quality;
  quality.mark_day_unavailable(core::Feed::kRoas, dates[1]);
  quality.mark_day_unavailable(core::Feed::kRoas, dates[3]);
  quality.mark_day_unavailable(core::Feed::kDelegations, dates[2]);

  core::ReportOptions options;
  options.include_series = true;

  options.threads = 1;
  std::ostringstream sequential;
  core::Study s1 = study();
  s1.quality = &quality;
  int sections_seq = core::write_report(sequential, s1, options);

  options.threads = 8;
  std::ostringstream parallel;
  core::Study s8 = study();
  s8.quality = &quality;
  int sections_par = core::write_report(parallel, s8, options);

  EXPECT_EQ(sections_seq, sections_par);
  EXPECT_EQ(sequential.str(), parallel.str());
  EXPECT_NE(sequential.str().find("## Data quality"), std::string::npos);
  // dates[1] and dates[3] lack ROAs, dates[2] lacks delegations — the ROA
  // status sampler needs all three substrates, so it degrades on all three.
  EXPECT_NE(sequential.str().find("Degraded samples: roa_status 3/"),
            std::string::npos)
      << sequential.str();
}

TEST_F(DegradationTest, UntouchedSectionsMatchTheCleanReportByteForByte) {
  core::ReportOptions options;
  options.threads = 2;

  std::ostringstream clean_out;
  core::Study clean = study();
  core::write_report(clean_out, clean, options);

  const std::vector<net::Date> dates = sample_dates();
  core::DataQuality quality;
  quality.mark_day_unavailable(core::Feed::kRoas, dates[1]);
  std::ostringstream degraded_out;
  core::Study degraded = study();
  degraded.quality = &quality;
  core::write_report(degraded_out, degraded, options);

  // Everything before the RPKI section reads only per-entry substrate state,
  // not per-day snapshots — degradation must not perturb a single byte.
  const std::string marker = "\n## Effectiveness of RPKI";
  size_t clean_cut = clean_out.str().find(marker);
  size_t degraded_cut = degraded_out.str().find(marker);
  ASSERT_NE(clean_cut, std::string::npos);
  ASSERT_NE(degraded_cut, std::string::npos);
  EXPECT_EQ(clean_out.str().substr(0, clean_cut),
            degraded_out.str().substr(0, degraded_cut));

  // A clean study renders no quality section; the degraded one does.
  EXPECT_EQ(clean_out.str().find("## Data quality"), std::string::npos);
  EXPECT_NE(degraded_out.str().find("## Data quality"), std::string::npos);
}

TEST_F(DegradationTest, DataQualityLedgerAggregatesAndRenders) {
  core::DataQuality quality;
  util::ParseReport a("day-001.feed");
  a.add_parsed(100);
  util::ParseReport b("day-002.feed");
  b.add_parsed(90);
  b.add_error(12, "bad prefix");
  b.add_error(40, "bad prefix");
  util::ParseReport c("day-003.feed");
  c.add_parsed(95);
  c.add_error(7, "junk line");
  quality.note_input(core::Feed::kDropFeed, a);
  quality.note_input(core::Feed::kDropFeed, b);
  quality.note_input(core::Feed::kDropFeed, c);
  quality.mark_day_unavailable(core::Feed::kBgpUpdates, net::Date(123));

  EXPECT_FALSE(quality.clean());
  EXPECT_EQ(quality.total_skipped(), 3u);
  EXPECT_EQ(quality.total_unavailable_days(), 1u);
  EXPECT_EQ(quality.report(core::Feed::kDropFeed).parsed(), 285u);
  EXPECT_EQ(quality.report(core::Feed::kDropFeed).skipped(), 3u);
  EXPECT_FALSE(quality.day_available(core::Feed::kBgpUpdates, net::Date(123)));
  EXPECT_TRUE(quality.day_available(core::Feed::kBgpUpdates, net::Date(124)));
  EXPECT_TRUE(quality.day_available(core::Feed::kDropFeed, net::Date(123)));

  // Worst inputs: only the dirty files, worst first.
  const auto& worst = quality.worst_inputs(core::Feed::kDropFeed);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].input(), "day-002.feed");
  EXPECT_EQ(worst[1].input(), "day-003.feed");

  std::ostringstream out;
  quality.render(out);
  EXPECT_NE(out.str().find("DROP feed"), std::string::npos);
  EXPECT_NE(out.str().find("day-002.feed"), std::string::npos);
  EXPECT_NE(out.str().find("BGP updates"), std::string::npos);
}

// End to end: a corrupted daily DROP-feed archive, ingested leniently, feeds
// a DataQuality ledger whose counts match the injected damage exactly.
TEST_F(DegradationTest, CorruptedArchiveRoundTripsThroughLenientIngestion) {
  const std::vector<net::Date> dates = sample_dates();
  sim::FaultInjector::DailyArchive archive;
  for (net::Date d : dates) {
    archive.emplace_back(d, drop::write_drop_feed(world_->drop, d));
  }

  sim::FaultInjector inj(31);
  constexpr int kGarbagePerDay = 2;
  // Corrupt every other day, drop one, and shuffle delivery order.
  size_t corrupted_days = 0;
  for (size_t i = 0; i < archive.size(); i += 2) {
    archive[i].second = inj.garbage_lines(archive[i].second, kGarbagePerDay);
    ++corrupted_days;
  }
  std::vector<net::Date> dropped = inj.drop_days(archive, 1);
  ASSERT_EQ(dropped.size(), 1u);
  inj.shuffle_days(archive);

  core::DataQuality quality;
  std::vector<std::pair<net::Date, std::vector<drop::FeedEntry>>> days;
  for (const auto& [date, text] : archive) {
    util::ParseReport report(date.to_string() + ".feed");
    days.emplace_back(date,
                      drop::parse_drop_feed(
                          text, util::ParsePolicy::kLenient, &report));
    quality.note_input(core::Feed::kDropFeed, report);
  }
  for (net::Date d : dropped) {
    quality.mark_day_unavailable(core::Feed::kDropFeed, d);
  }
  // from_daily_feeds sorts the shuffled days itself; the rebuild succeeds.
  drop::DropList rebuilt = drop::from_daily_feeds(days);
  EXPECT_FALSE(rebuilt.all_prefixes().empty());

  // Ledger totals equal the injected damage: dropped day may or may not have
  // been one of the corrupted ones, so recount what garbage survived.
  size_t expected_skips = 0;
  for (net::Date d : dates) {
    bool was_dropped = d == dropped[0];
    size_t index = 0;
    while (dates[index] != d) ++index;
    if (!was_dropped && index % 2 == 0) {
      expected_skips += kGarbagePerDay;
    }
  }
  EXPECT_EQ(quality.total_skipped(), expected_skips);
  EXPECT_EQ(quality.total_unavailable_days(), 1u);
  EXPECT_FALSE(quality.clean());
}

}  // namespace
}  // namespace droplens
