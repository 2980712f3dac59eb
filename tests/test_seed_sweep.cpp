// Seed-sweep robustness: the calibration must hold for ANY seed, not just
// the default — exact counts are quota-pinned, detections are structural.
#include <gtest/gtest.h>

#include "core/case_study.hpp"
#include "core/drop_index.hpp"
#include "core/irr_analysis.hpp"
#include "core/snapshot_cache.hpp"
#include "core/visibility.hpp"
#include "sim/generator.hpp"

namespace droplens {
namespace {

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, InvariantsHoldAcrossSeeds) {
  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  config.seed = GetParam();
  std::unique_ptr<sim::World> world = sim::generate(config);
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet,  world->irr,
                    world->roas,     world->drop,   world->sbl,
                    config.window_begin, config.window_end};
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);

  // Exact population counts.
  EXPECT_EQ(world->drop.all_prefixes().size(),
            static_cast<size_t>(config.total_drop_prefixes()));
  EXPECT_EQ(world->truth.unallocated_prefixes.size(),
            static_cast<size_t>(config.unallocated_drop));
  EXPECT_EQ(world->truth.forged_irr_prefixes.size(),
            static_cast<size_t>(config.forged_irr_hijacks));

  // Structural detections.
  core::CaseStudyResult cs = core::analyze_case_study(study, index);
  ASSERT_EQ(cs.valid_hijacks.size(), 1u) << "seed " << config.seed;
  EXPECT_EQ(cs.valid_hijacks[0].prefix.to_string(), "132.255.0.0/22");
  EXPECT_EQ(cs.valid_hijacks[0].siblings.size(), 6u);

  core::VisibilityResult vis = core::analyze_visibility(study, index);
  EXPECT_EQ(vis.filtering_peers, config.drop_filtering_peers)
      << "seed " << config.seed;

  core::IrrResult irr = core::analyze_irr(study, index);
  EXPECT_EQ(irr.hijacker_asn_in_route_object, config.forged_irr_hijacks);
  EXPECT_EQ(irr.unallocated_with_route_object, 1);
  ASSERT_TRUE(irr.serial_common_transit.has_value());
  EXPECT_EQ(irr.serial_common_transit->value(), 50509u);

  // Incident detection recovers exactly the planted clusters.
  size_t incidents = 0;
  for (const core::DropEntry& e : index.entries()) incidents += e.incident;
  EXPECT_EQ(incidents, world->truth.incident_prefixes.size())
      << "seed " << config.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1ULL, 99ULL, 20260707ULL,
                                           0xdeadbeefULL));

}  // namespace
}  // namespace droplens
