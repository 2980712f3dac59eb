// AS0 what-if: quantify the attack surface that AS0 ROAs would remove —
// the paper's policy recommendation (§6.2, §7).
//
// Three scenarios at the end of the study window:
//   (1) status quo:      attackable = unrouted space not protected by AS0
//   (2) operators sign:  holders of signed-but-unrouted space add AS0
//   (3) RIRs+operators:  additionally, every RIR covers its free pool
//
//   $ ./as0_whatif [--full]
//
// Any other argument prints the usage line and exits 2 before the world is
// generated.
#include <cstring>
#include <iostream>

#include "sim/generator.hpp"
#include "util/text_table.hpp"

using namespace droplens;

namespace {

int usage(const char* arg) {
  std::cerr << "unknown argument: " << arg << "\nusage: as0_whatif [--full]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") != 0) return usage(argv[i]);
    full = true;
  }
  sim::ScenarioConfig config =
      full ? sim::ScenarioConfig{} : sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  net::Date end = config.window_end;

  using net::IntervalSet;
  IntervalSet routed = world->fleet.routed_space(end);
  IntervalSet allocated = world->registry.allocated_space(end);
  IntervalSet signed_space =
      world->roas.signed_space(end, rpki::TalSet::defaults());
  rpki::TalSet as0_tals;
  as0_tals.add(rpki::Tal::kApnicAs0);
  as0_tals.add(rpki::Tal::kLacnicAs0);
  IntervalSet as0_covered = world->roas.signed_space(
      end, rpki::TalSet::all(), rpki::RoaArchive::Filter::kAs0Only);

  // The attack surface: space an attacker can originate without tripping
  // ROV anywhere. Unrouted space that is (a) signed with a non-AS0 ROA
  // (forge the origin, still valid — the 132.255.0.0/22 lesson), (b)
  // allocated and unsigned, or (c) unallocated and not AS0-covered.
  IntervalSet unrouted_signed = IntervalSet::set_difference(
      world->roas.signed_space(end, rpki::TalSet::defaults(),
                               rpki::RoaArchive::Filter::kNonAs0Only),
      routed);
  IntervalSet unrouted_unsigned_alloc = IntervalSet::set_difference(
      IntervalSet::set_difference(allocated, routed), signed_space);
  IntervalSet pool_space;
  for (rir::Rir r : rir::kAllRirs) {
    pool_space =
        IntervalSet::set_union(pool_space, world->registry.free_pool(r, end));
  }
  IntervalSet pool_unprotected =
      IntervalSet::set_difference(pool_space, as0_covered);

  auto s8 = [](const IntervalSet& s) {
    return util::fixed(s.slash8_equivalents(), 2);
  };

  std::cout << "=== AS0 what-if at " << end.to_string() << " ===\n\n";
  util::TextTable table({"attack surface component", "/8-equivalents"});
  table.add_row({"unrouted, signed non-AS0 (forged-origin valid!)",
                 s8(unrouted_signed)});
  table.add_row({"allocated, unrouted, unsigned", s8(unrouted_unsigned_alloc)});
  table.add_row({"unallocated, not AS0-covered", s8(pool_unprotected)});
  IntervalSet total = IntervalSet::set_union(
      IntervalSet::set_union(unrouted_signed, unrouted_unsigned_alloc),
      pool_unprotected);
  table.add_rule();
  table.add_row({"TOTAL attackable today", s8(total)});
  table.print(std::cout);

  // Scenario 2: operators with signed-unrouted space add AS0 ROAs.
  IntervalSet after_operators =
      IntervalSet::set_difference(total, unrouted_signed);
  // Scenario 3: plus every RIR covers its remaining pool with AS0 (and
  // validators actually use those TALs).
  IntervalSet after_rirs =
      IntervalSet::set_difference(after_operators, pool_unprotected);

  std::cout << "\nPolicy scenarios:\n";
  util::TextTable pol({"scenario", "attackable /8-eq", "reduction"});
  auto pct = [&](const IntervalSet& s) {
    return util::percent(
        static_cast<double>(total.size() - s.size()),
        static_cast<double>(total.size()));
  };
  pol.add_row({"status quo", s8(total), "-"});
  pol.add_row({"operators sign unrouted space AS0", s8(after_operators),
               pct(after_operators)});
  pol.add_row({"+ all RIRs AS0 their pools (enforced)", s8(after_rirs),
               pct(after_rirs)});
  pol.print(std::cout);

  std::cout << "\nRemaining exposure is allocated-but-unrouted unsigned "
               "space, which only its (often absent) holders can protect — "
               "the paper's argument for RPKI eligibility reform.\n";
  return 0;
}
