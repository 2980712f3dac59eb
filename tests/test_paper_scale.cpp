// Paper-scale regression test: the full default scenario must land within
// tolerance of the paper's headline numbers. This is the end-to-end check
// that the reproduction holds its shape (EXPERIMENTS.md documents the
// targets in detail). Runs in ~15 s.
#include <gtest/gtest.h>

#include "core/alarms.hpp"
#include "core/as0_analysis.hpp"
#include "core/case_study.hpp"
#include "core/classification.hpp"
#include "core/drop_index.hpp"
#include "core/irr_analysis.hpp"
#include "core/irr_whatif.hpp"
#include "core/roa_status.hpp"
#include "core/rpki_uptake.hpp"
#include "core/defenses.hpp"
#include "core/maxlength.hpp"
#include "core/serial_hijackers.hpp"
#include "core/snapshot_cache.hpp"
#include "core/visibility.hpp"
#include "sim/generator.hpp"

namespace droplens::core {
namespace {

class PaperScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig();
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

sim::ScenarioConfig* PaperScaleTest::config_ = nullptr;
sim::World* PaperScaleTest::world_ = nullptr;
SnapshotCache* PaperScaleTest::cache_ = nullptr;
Study* PaperScaleTest::study_ = nullptr;
DropIndex* PaperScaleTest::index_ = nullptr;

TEST_F(PaperScaleTest, Section3Composition) {
  ClassificationResult r = analyze_classification(*study_, *index_);
  EXPECT_EQ(r.total_prefixes, 712);                     // paper: 712
  EXPECT_EQ(r.with_record, 526);                        // paper: 526
  EXPECT_EQ(r.incident_prefixes, 45);                   // paper: 45
  double incident_share = static_cast<double>(r.incident_space.size()) /
                          static_cast<double>(r.total_space.size());
  EXPECT_NEAR(incident_share, 0.488, 0.05);             // paper: 48.8%
  EXPECT_NEAR(r.with_asn_annotation, 190, 25);          // paper: 190
  EXPECT_NEAR(r.hijacked_with_asn, 130, 15);            // paper: 130
  // Snowshoe: ~1/3 of prefixes, ~8.5% of space.
  const CategoryStats& ss =
      r.per_category[static_cast<size_t>(drop::Category::kSnowshoe)];
  EXPECT_NEAR(ss.total_prefixes(), 225, 10);
  EXPECT_NEAR(static_cast<double>(ss.space.size()) /
                  static_cast<double>(r.total_space.size()),
              0.085, 0.03);
}

TEST_F(PaperScaleTest, Section41Visibility) {
  VisibilityResult r = analyze_visibility(*study_, *index_);
  EXPECT_NEAR(r.withdrawn_30d_rate(), 0.19, 0.03);      // paper: 19%
  size_t hj = static_cast<size_t>(drop::Category::kHijacked);
  size_t ua = static_cast<size_t>(drop::Category::kUnallocated);
  EXPECT_NEAR(static_cast<double>(r.withdrawn_30d_by_category[hj]) /
                  r.routed_by_category[hj],
              0.707, 0.08);                             // paper: 70.7%
  EXPECT_NEAR(static_cast<double>(r.withdrawn_30d_by_category[ua]) /
                  r.routed_by_category[ua],
              0.548, 0.15);                             // paper: 54.8%
  EXPECT_EQ(r.filtering_peers, 3);                      // paper: 3 peers
  EXPECT_NEAR(static_cast<double>(r.mh_deallocated) /
                  r.mh_allocated_at_listing,
              0.174, 0.10);                             // paper: 17.4%
  EXPECT_NEAR(static_cast<double>(r.removed_deallocated) /
                  r.removed_prefixes,
              0.088, 0.05);                             // paper: 8.8%
}

TEST_F(PaperScaleTest, Table1SigningRates) {
  RpkiUptakeResult r = analyze_rpki_uptake(*study_, *index_);
  EXPECT_NEAR(r.never_total.rate(), 0.223, 0.03);       // paper: 22.3%
  EXPECT_NEAR(r.removed_total.rate(), 0.425, 0.08);     // paper: 42.5%
  EXPECT_NEAR(r.present_total.rate(), 0.138, 0.08);     // paper: 13.8%
  EXPECT_NEAR(r.never_total.total, 195600, 8000);       // paper: 195.6K
  EXPECT_EQ(r.removed_total.total, 186);                // paper: 186
  // §4.2 ASN comparison.
  EXPECT_NEAR(static_cast<double>(r.removed_signed_different_asn) /
                  r.removed_signed,
              0.823, 0.12);                             // paper: 82.3%
  EXPECT_NEAR(static_cast<double>(r.removed_signed_same_asn) /
                  r.removed_signed,
              0.063, 0.08);                             // paper: 6.3%
}

TEST_F(PaperScaleTest, Section5Irr) {
  IrrResult r = analyze_irr(*study_, *index_);
  EXPECT_NEAR(r.prefixes_with_route_object, 226, 20);   // paper: 226
  EXPECT_NEAR(static_cast<double>(r.route_object_space.size()) /
                  static_cast<double>(r.drop_space.size()),
              0.688, 0.08);                             // paper: 68.8%
  EXPECT_EQ(r.hijacker_asn_in_route_object, 57);        // paper: 57
  EXPECT_NEAR(r.hijacked_with_asn, 130, 15);            // paper: 130
  EXPECT_EQ(r.distinct_hijacking_asns, 13);             // paper: 13
  EXPECT_EQ(r.top3_org_prefixes, 49);                   // paper: 49
  EXPECT_EQ(r.late_records, 2);                         // paper: 2
  EXPECT_EQ(r.preexisting_entries, 5);                  // paper: 5
  EXPECT_EQ(r.unallocated_with_route_object, 1);        // paper: 1
  ASSERT_TRUE(r.serial_common_transit.has_value());
  EXPECT_EQ(r.serial_common_transit->value(), 50509u);  // paper: AS50509
  // Fig 3: all but the late records hit BGP within a week.
  int within_week = 0;
  for (const ForgedIrrCase& c : r.forged_cases) {
    if (c.days_irr_to_bgp >= 0 && c.days_irr_to_bgp < 7) ++within_week;
  }
  EXPECT_EQ(within_week, 55);                           // paper: 55 of 57
}

TEST_F(PaperScaleTest, Section61CaseStudy) {
  CaseStudyResult r = analyze_case_study(*study_, *index_);
  EXPECT_EQ(r.signed_before_listing, 3);                // paper: 3
  EXPECT_EQ(r.attacker_controlled_roas, 2);             // paper: 2
  ASSERT_EQ(r.valid_hijacks.size(), 1u);                // paper: 1 (Fig 4)
  const RpkiValidHijack& h = r.valid_hijacks[0];
  EXPECT_EQ(h.prefix.to_string(), "132.255.0.0/22");
  EXPECT_EQ(h.roa_asn.value(), 263692u);
  EXPECT_EQ(h.siblings.size(), 6u);                     // paper: 6
  EXPECT_EQ(h.siblings_on_drop, 3);                     // paper: 3
}

TEST_F(PaperScaleTest, Fig5SpaceAccounting) {
  RoaStatusResult r = analyze_roa_status(*study_);
  EXPECT_NEAR(r.first().signed_slash8, 49.1, 2.0);
  EXPECT_NEAR(r.last().signed_slash8, 70.4, 2.0);
  EXPECT_NEAR(r.first().percent_roas_routed(), 97.1, 1.0);
  EXPECT_NEAR(r.last().percent_roas_routed(), 90.5, 1.0);
  EXPECT_NEAR(r.first().signed_unrouted_nonas0_slash8, 1.6, 0.5);
  EXPECT_NEAR(r.last().signed_unrouted_nonas0_slash8, 6.7, 0.5);
  EXPECT_NEAR(r.first().alloc_unrouted_no_roa_slash8, 29.2, 1.0);
  EXPECT_NEAR(r.last().alloc_unrouted_no_roa_slash8, 30.0, 1.0);
  EXPECT_NEAR(r.arin_share_of_unrouted_unsigned, 0.608, 0.05);
  EXPECT_NEAR(r.top3_share, 0.701, 0.08);               // paper: 70.1%
  ASSERT_GE(r.top_signed_unrouted_holders.size(), 3u);
  EXPECT_EQ(r.top_signed_unrouted_holders[0].holder, "Amazon");
  EXPECT_NEAR(r.top_signed_unrouted_holders[0].slash8, 3.1, 0.2);
}

TEST_F(PaperScaleTest, Fig6Fig7As0) {
  As0Result r = analyze_as0(*study_, *index_);
  EXPECT_EQ(r.unallocated_listings.size(), 40u);        // paper: 40
  EXPECT_EQ(r.unallocated_by_rir[static_cast<size_t>(rir::Rir::kLacnic)],
            19);                                        // paper: 19
  EXPECT_EQ(r.unallocated_by_rir[static_cast<size_t>(rir::Rir::kAfrinic)],
            12);                                        // paper: 12
  EXPECT_GT(r.listed_after_policy, 0);  // hijacks continued after AS0
  EXPECT_EQ(r.peers_apparently_filtering_as0, 0);       // paper: none
  EXPECT_NEAR(r.mean_as0_rejectable, 30.0, 12.0);       // paper: ~30
}

TEST_F(PaperScaleTest, ExtensionMaxLengthVulnerability) {
  MaxLengthResult r = analyze_maxlength(*study_, config_->window_end);
  // Gilad et al. (June 2017): 84% of maxLength ROAs vulnerable.
  EXPECT_NEAR(r.vulnerable_rate(), 0.84, 0.08);
  EXPECT_NEAR(r.maxlength_share(), 0.12, 0.04);
}

TEST_F(PaperScaleTest, ExtensionDefenseMatrix) {
  DefenseMatrixResult r = analyze_defenses(*study_, *index_);
  EXPECT_GT(r.total(), 150);  // ~174 hijack+unallocated announcements
  // ROV as deployed stops (nearly) nothing — the hijacks target unsigned
  // space, and the RPKI-valid hijack passes by construction.
  EXPECT_LE(r.blocked_by_defense[static_cast<size_t>(Defense::kRov)], 2);
  // Enforced RIR AS0 stops every unallocated squat (40 of them).
  size_t ua = static_cast<size_t>(HijackKind::kUnallocated);
  EXPECT_EQ(r.events_by_kind[ua], 40);
  EXPECT_EQ(r.blocked_by_kind[ua][static_cast<size_t>(Defense::kRovRirAs0)],
            40);
  // A substantial share of the hijacks falls only to AS0 policies, and a
  // larger one to nothing at all (abandoned unsigned space) — the paper's
  // case for RPKI eligibility reform.
  EXPECT_GE(r.unstoppable_without_as0, 40);
  EXPECT_GT(r.blocked_by_nothing, 30);
}

TEST_F(PaperScaleTest, ExtensionSerialHijackers) {
  SerialHijackerResult r = analyze_serial_hijackers(*study_, *index_);
  // Most of the 13 planted hijacking ASNs are recovered, with no false
  // positives among legitimate operators.
  EXPECT_GE(static_cast<int>(r.flagged.size()), 8);
  for (const OriginProfile& p : r.flagged) {
    EXPECT_GE(p.asn.value(), 61000u) << p.asn.to_string();
    EXPECT_LT(p.asn.value(), 61100u) << p.asn.to_string();
  }
}

TEST_F(PaperScaleTest, ExtensionPhasAlarms) {
  AlarmResult r = analyze_alarms(*study_, *index_);
  // A PHAS-style monitor watches announced space, so nearly every DROP
  // hijack, on abandoned never-announced space or under the historic
  // origin, trips nothing.
  EXPECT_EQ(r.alarms.size(), 8u);
  EXPECT_EQ(r.drop_hijacks_total, 179);
  EXPECT_EQ(r.drop_hijacks_alarmed, 3);
  EXPECT_EQ(r.drop_hijacks_stealthy, 176);
}

TEST_F(PaperScaleTest, ExtensionAuthenticatedIrr) {
  IrrWhatIfResult r = analyze_irr_whatif(*study_);
  // The holder check rejects the 57 forged hijack objects (§5) and the one
  // bogon registration, but every object on fraudulently allocated
  // incident space still passes.
  EXPECT_EQ(r.registrations_replayed, 231);
  EXPECT_EQ(r.accepted, 173);
  EXPECT_EQ(r.rejected, 58);
  EXPECT_EQ(r.rejected_forged, 57);
  EXPECT_EQ(r.accepted_incident, 45);
  // No victim's own route object is rejected: the registry names the
  // holder the way the owner's object does.
  for (const irr::RouteObject& obj : r.rejected_objects) {
    EXPECT_FALSE(obj.org_id.starts_with("victim-org-"))
        << obj.prefix.to_string() << " " << obj.origin.to_string() << " "
        << obj.org_id;
  }
}

}  // namespace
}  // namespace droplens::core
