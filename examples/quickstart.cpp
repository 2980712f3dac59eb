// Quickstart: generate a small synthetic Internet, run the full DROP-lens
// analysis pipeline, and print a one-page report.
//
//   $ ./quickstart [--full]
//
// --full runs the paper-scale scenario (a few seconds and ~1 GB of RAM);
// the default small scenario finishes in milliseconds.
#include <cstring>
#include <iostream>

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
#include "util/text_table.hpp"

using namespace droplens;

int main(int argc, char** argv) {
  bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  sim::ScenarioConfig config =
      full ? sim::ScenarioConfig{} : sim::ScenarioConfig::small();

  std::cout << "Generating " << (full ? "paper-scale" : "small")
            << " synthetic Internet (seed " << config.seed << ")...\n";
  std::unique_ptr<sim::World> world = sim::generate(config);

  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet,  world->irr,
                    world->roas,     world->drop,   world->sbl,
                    config.window_begin, config.window_end};
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);

  std::cout << "\n== The DROP list ==\n";
  core::ClassificationResult cls = core::analyze_classification(study, index);
  std::cout << "prefixes ever listed:     " << cls.total_prefixes << "\n"
            << "with an SBL record:       " << cls.with_record << " ("
            << util::percent(cls.with_record, cls.total_prefixes) << ")\n"
            << "AFRINIC-incident share:   "
            << util::percent(
                   static_cast<double>(cls.incident_space.size()),
                   static_cast<double>(cls.total_space.size()))
            << " of listed space in " << cls.incident_prefixes
            << " prefixes\n";

  util::TextTable table({"category", "exclusive", "+overlap", "space /8-eq"});
  for (const core::CategoryStats& s : cls.per_category) {
    table.add_row({std::string(drop::full_name(s.category)),
                   std::to_string(s.exclusive_prefixes),
                   std::to_string(s.additional_prefixes),
                   util::fixed(s.space.slash8_equivalents(), 4)});
  }
  table.print(std::cout);

  std::cout << "\n== Effects of blocklisting ==\n";
  core::VisibilityResult vis = core::analyze_visibility(study, index);
  std::cout << "withdrawn within 30 days: "
            << util::percent(vis.withdrawn_within_30d, vis.routed_at_listing)
            << " of " << vis.routed_at_listing << " routed-at-listing\n"
            << "peers that filter DROP:   " << vis.filtering_peers << " of "
            << world->fleet.full_table_peer_count() << "\n";

  core::RpkiUptakeResult uptake = core::analyze_rpki_uptake(study, index);
  std::cout << "signing rate (never/removed/present): "
            << util::percent(uptake.never_total.signed_,
                             uptake.never_total.total)
            << " / "
            << util::percent(uptake.removed_total.signed_,
                             uptake.removed_total.total)
            << " / "
            << util::percent(uptake.present_total.signed_,
                             uptake.present_total.total)
            << "\n";

  std::cout << "\n== IRR ==\n";
  core::IrrResult irr = core::analyze_irr(study, index);
  std::cout << "DROP prefixes with route object: "
            << irr.prefixes_with_route_object << " ("
            << util::percent(irr.prefixes_with_route_object,
                             irr.drop_prefix_count)
            << " of prefixes, "
            << util::percent(
                   static_cast<double>(irr.route_object_space.size()),
                   static_cast<double>(irr.drop_space.size()))
            << " of space)\n"
            << "hijacker ASN in route object:    "
            << irr.hijacker_asn_in_route_object << " of "
            << irr.hijacked_with_asn << " labeled hijacks, via "
            << irr.distinct_hijacking_asns << " ASNs\n";

  std::cout << "\n== RPKI ==\n";
  core::CaseStudyResult cs = core::analyze_case_study(study, index);
  std::cout << "hijacked prefixes signed before listing: "
            << cs.signed_before_listing << " of " << cs.hijacked_prefixes
            << " (attacker-controlled ROAs: " << cs.attacker_controlled_roas
            << ")\n";
  for (const core::RpkiValidHijack& h : cs.valid_hijacks) {
    std::cout << "RPKI-VALID HIJACK: " << h.prefix.to_string() << " via ROA "
              << h.roa_asn.to_string() << ", unrouted since "
              << h.unrouted_since.to_string() << ", re-originated "
              << h.rehijacked_on.to_string() << "; " << h.siblings.size()
              << " sibling prefixes (" << h.siblings_on_drop << " on DROP)\n";
  }

  core::RoaStatusResult roa = core::analyze_roa_status(study);
  std::cout << "signed space:  " << util::fixed(roa.first().signed_slash8, 2)
            << " -> " << util::fixed(roa.last().signed_slash8, 2)
            << " /8-equivalents ("
            << util::fixed(roa.first().percent_roas_routed(), 1) << "% -> "
            << util::fixed(roa.last().percent_roas_routed(), 1)
            << "% routed)\n"
            << "signed+unrouted (hijackable): "
            << util::fixed(roa.last().signed_unrouted_nonas0_slash8, 2)
            << " /8-eq; allocated+unrouted+unsigned: "
            << util::fixed(roa.last().alloc_unrouted_no_roa_slash8, 2)
            << " /8-eq\n";

  core::As0Result as0 = core::analyze_as0(study, index);
  std::cout << "unallocated prefixes on DROP: "
            << as0.unallocated_listings.size() << " ("
            << as0.listed_after_policy << " after an RIR AS0 policy)\n"
            << "routes/peer an AS0 TAL would reject: "
            << util::fixed(as0.mean_as0_rejectable, 1) << " (peers filtering: "
            << as0.peers_apparently_filtering_as0 << ")\n";
  return 0;
}
