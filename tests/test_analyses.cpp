// Integration tests: the analysis pipeline must recover what the generator
// planted, using only the data sets (never the ground truth as input).
#include <gtest/gtest.h>

#include "core/as0_analysis.hpp"
#include "core/case_study.hpp"
#include "core/classification.hpp"
#include "core/drop_index.hpp"
#include "core/irr_analysis.hpp"
#include "core/roa_status.hpp"
#include "core/rpki_uptake.hpp"
#include "core/snapshot_cache.hpp"
#include "core/visibility.hpp"
#include "sim/generator.hpp"

namespace droplens::core {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig(sim::ScenarioConfig::small());
    world_ = sim::generate(*config_).release();
    cache_ = new SnapshotCache(world_->registry, world_->fleet, world_->roas,
                               world_->drop, &world_->irr);
    study_ = new Study{world_->registry,    world_->fleet, world_->irr,
                       world_->roas,        world_->drop,  world_->sbl,
                       config_->window_begin, config_->window_end};
    study_->snapshots = cache_;
    index_ = new DropIndex(DropIndex::build(*study_));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete study_;
    delete cache_;
    delete world_;
    delete config_;
  }
  static sim::ScenarioConfig* config_;
  static sim::World* world_;
  static SnapshotCache* cache_;
  static Study* study_;
  static DropIndex* index_;
};

sim::ScenarioConfig* AnalysisTest::config_ = nullptr;
sim::World* AnalysisTest::world_ = nullptr;
SnapshotCache* AnalysisTest::cache_ = nullptr;
Study* AnalysisTest::study_ = nullptr;
DropIndex* AnalysisTest::index_ = nullptr;

TEST_F(AnalysisTest, DropIndexCoversEveryListedPrefix) {
  EXPECT_EQ(index_->entries().size(), world_->drop.all_prefixes().size());
}

TEST_F(AnalysisTest, IncidentDetectionRecoversThePlantedClusters) {
  std::set<net::Prefix> detected;
  for (const DropEntry& e : index_->entries()) {
    if (e.incident) detected.insert(e.prefix);
  }
  std::set<net::Prefix> planted(world_->truth.incident_prefixes.begin(),
                                world_->truth.incident_prefixes.end());
  EXPECT_EQ(detected, planted);
}

TEST_F(AnalysisTest, ClassificationTotalsAreConsistent) {
  ClassificationResult r = analyze_classification(*study_, *index_);
  EXPECT_EQ(r.total_prefixes,
            static_cast<int>(index_->entries().size()));
  EXPECT_EQ(r.per_category[static_cast<size_t>(drop::Category::kNoRecord)]
                .total_prefixes(),
            config_->no_record);
  EXPECT_EQ(r.per_category[static_cast<size_t>(drop::Category::kUnallocated)]
                .total_prefixes(),
            config_->unallocated_drop);
  // NR prefixes = prefixes without a record.
  EXPECT_EQ(r.total_prefixes - r.with_record, config_->no_record);
  // Keyword counts partition the records with categories.
  EXPECT_EQ(r.records_one_keyword + r.records_two_keywords +
                r.records_no_keyword,
            r.with_record);
}

TEST_F(AnalysisTest, VisibilityRecoversWithdrawalsAndFilteringPeers) {
  VisibilityResult r = analyze_visibility(*study_, *index_);
  EXPECT_EQ(r.filtering_peers, config_->drop_filtering_peers);
  std::set<bgp::PeerId> detected;
  for (const PeerFilterStat& s : r.peer_stats) {
    if (s.appears_to_filter) detected.insert(s.peer);
  }
  std::set<bgp::PeerId> planted(world_->truth.drop_filtering_peers.begin(),
                                world_->truth.drop_filtering_peers.end());
  EXPECT_EQ(detected, planted);
  // Withdrawal CDF is monotone and ends at the headline rate.
  for (size_t i = 1; i < r.withdrawal_cdf.size(); ++i) {
    EXPECT_GE(r.withdrawal_cdf[i].fraction,
              r.withdrawal_cdf[i - 1].fraction);
  }
  EXPECT_NEAR(r.withdrawal_cdf.back().fraction, r.withdrawn_30d_rate(),
              1e-9);
  // Hijacked withdraw more than the rest (the paper's key contrast).
  size_t hj = static_cast<size_t>(drop::Category::kHijacked);
  size_t ss = static_cast<size_t>(drop::Category::kSnowshoe);
  ASSERT_GT(r.routed_by_category[hj], 0);
  double hj_rate = static_cast<double>(r.withdrawn_30d_by_category[hj]) /
                   r.routed_by_category[hj];
  double ss_rate = r.routed_by_category[ss]
                       ? static_cast<double>(r.withdrawn_30d_by_category[ss]) /
                             r.routed_by_category[ss]
                       : 0.0;
  EXPECT_GT(hj_rate, ss_rate);
}

TEST_F(AnalysisTest, RpkiUptakeOrdering) {
  RpkiUptakeResult r = analyze_rpki_uptake(*study_, *index_);
  // Population sanity: everything Table 1 counts was unsigned at reference.
  EXPECT_GT(r.never_total.total, 0);
  EXPECT_GT(r.removed_total.total, 0);
  EXPECT_GT(r.present_total.total, 0);
  // The paper's ordering: removed > never > present signing rates.
  EXPECT_GT(r.removed_total.rate(), r.never_total.rate());
  EXPECT_GT(r.never_total.rate(), r.present_total.rate());
  // §4.2 breakdown partitions the removed-and-signed set.
  EXPECT_EQ(r.removed_signed_same_asn + r.removed_signed_different_asn +
                r.removed_signed_unannounced,
            r.removed_signed);
  EXPECT_GT(r.removed_signed_different_asn, r.removed_signed_same_asn);
}

TEST_F(AnalysisTest, IrrAnalysisRecoversForgedObjects) {
  IrrResult r = analyze_irr(*study_, *index_);
  EXPECT_EQ(r.hijacker_asn_in_route_object, config_->forged_irr_hijacks);
  EXPECT_EQ(static_cast<int>(r.forged_cases.size()),
            config_->forged_irr_hijacks);
  EXPECT_LE(r.distinct_hijacking_asns, config_->hijacking_asn_count);
  EXPECT_EQ(r.late_records, config_->forged_irr_late_records);
  EXPECT_EQ(r.preexisting_entries, config_->forged_irr_preexisting);
  EXPECT_EQ(r.unallocated_with_route_object, 1);
  // The serial ORG's common transit is the paper's AS50509.
  ASSERT_TRUE(r.serial_common_transit.has_value());
  EXPECT_EQ(r.serial_common_transit->value(), 50509u);
  // Route objects exist for more prefixes than just the forged ones.
  EXPECT_GT(r.prefixes_with_route_object, r.hijacker_asn_in_route_object);
}

TEST_F(AnalysisTest, CaseStudyDetection) {
  CaseStudyResult r = analyze_case_study(*study_, *index_);
  EXPECT_EQ(r.signed_before_listing,
            config_->attacker_controlled_roas + 1);
  EXPECT_EQ(r.attacker_controlled_roas, config_->attacker_controlled_roas);
  ASSERT_EQ(r.valid_hijacks.size(), 1u);
  const RpkiValidHijack& h = r.valid_hijacks[0];
  EXPECT_EQ(h.prefix, world_->truth.case_study_prefix);
  EXPECT_EQ(h.roa_asn.value(), 263692u);
  EXPECT_EQ(h.siblings.size(), world_->truth.case_study_siblings.size());
  EXPECT_EQ(h.siblings_on_drop, 3);
  EXPECT_FALSE(h.timeline.empty());
}

TEST_F(AnalysisTest, RoaStatusSeriesIsCoherent) {
  RoaStatusResult r = analyze_roa_status(*study_);
  ASSERT_GE(r.series.size(), 2u);
  for (const RoaStatusSample& s : r.series) {
    EXPECT_GE(s.signed_slash8, s.signed_routed_slash8);
    EXPECT_GE(s.signed_slash8, 0);
    EXPECT_GE(s.alloc_unrouted_no_roa_slash8, 0);
  }
  // Signed space grows over the window; % routed declines.
  EXPECT_GT(r.last().signed_slash8, r.first().signed_slash8);
  EXPECT_LT(r.last().percent_roas_routed(), r.first().percent_roas_routed());
  // The named organizations hold most of the signed-unrouted space.
  EXPECT_GT(r.top3_share, 0.5);
  ASSERT_FALSE(r.top_signed_unrouted_holders.empty());
}

TEST_F(AnalysisTest, As0AnalysisRecoversUnallocatedListings) {
  As0Result r = analyze_as0(*study_, *index_);
  EXPECT_EQ(static_cast<int>(r.unallocated_listings.size()),
            config_->unallocated_drop);
  for (rir::Rir rir : rir::kAllRirs) {
    EXPECT_EQ(r.unallocated_by_rir[static_cast<size_t>(rir)],
              config_->unallocated_by_rir[static_cast<size_t>(rir)]);
  }
  // Pools evolve: draining dominates (LACNIC clearly shrinks); occasional
  // MH/NR deallocations may return small blocks, so other pools may tick
  // up slightly but never balloon.
  ASSERT_GE(r.pool_series.size(), 2u);
  const FreePoolSample& first = r.pool_series.front();
  const FreePoolSample& last = r.pool_series.back();
  size_t lacnic = static_cast<size_t>(rir::Rir::kLacnic);
  EXPECT_LT(last.pool_slash8[lacnic], first.pool_slash8[lacnic] * 0.7);
  for (rir::Rir rir : rir::kAllRirs) {
    size_t i = static_cast<size_t>(rir);
    EXPECT_LE(last.pool_slash8[i], first.pool_slash8[i] * 1.6 + 1e-6);
  }
  // APNIC and LACNIC pools end mostly AS0-covered; ARIN not at all.
  size_t apnic = static_cast<size_t>(rir::Rir::kApnic);
  size_t arin = static_cast<size_t>(rir::Rir::kArin);
  EXPECT_GT(last.pool_as0_covered[apnic], 0.0);
  EXPECT_EQ(last.pool_as0_covered[arin], 0.0);
  // No peer filters on the AS0 TALs; every peer carries rejectable routes.
  EXPECT_EQ(r.peers_apparently_filtering_as0, 0);
  EXPECT_GT(r.mean_as0_rejectable, 0.0);
}

}  // namespace
}  // namespace droplens::core
