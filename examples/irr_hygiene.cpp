// IRR hygiene audit: scan a RADb-style database for the suspicious
// route-object patterns of §5 — records created just before the prefix was
// first announced, origin ASNs conflicting with older records, ORG-IDs that
// register many prefixes with many different origins, and registrations of
// unallocated space.
//
//   $ ./irr_hygiene [--full]
//
// Any other argument prints the usage line and exits 2 before the world is
// generated.
#include <cstring>
#include <iostream>
#include <map>
#include <set>

#include "sim/generator.hpp"
#include "util/text_table.hpp"

using namespace droplens;

namespace {

int usage(const char* arg) {
  std::cerr << "unknown argument: " << arg
            << "\nusage: irr_hygiene [--full]\n";
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

  struct OrgStats {
    int objects = 0;
    std::set<uint32_t> origins;
    int created_then_announced = 0;  // BGP first seen < 30 d after record
  };
  std::map<std::string, OrgStats> orgs;
  int unallocated_registrations = 0;
  int conflicting_origins = 0;
  std::vector<std::string> flagged;

  for (const irr::Registration& reg : world->irr.all_history()) {
    const irr::RouteObject& obj = reg.object;
    OrgStats& org = orgs[obj.org_id];
    ++org.objects;
    org.origins.insert(obj.origin.value());

    // Pattern 1: record for unallocated space.
    if (world->registry.is_fully_unallocated(obj.prefix,
                                             reg.lifetime.begin)) {
      ++unallocated_registrations;
      flagged.push_back("UNALLOCATED  " + obj.prefix.to_string() + " org " +
                        obj.org_id);
    }
    // Pattern 2: record created, prefix announced shortly after — the
    // register-then-hijack signature (Fig 3).
    for (const bgp::Episode& e : world->fleet.episodes(obj.prefix)) {
      if (e.origin() == obj.origin &&
          e.range.begin >= reg.lifetime.begin &&
          e.range.begin - reg.lifetime.begin < 30) {
        ++org.created_then_announced;
        break;
      }
    }
    // Pattern 3: a newer record whose origin conflicts with an older one.
    for (const irr::Registration& other :
         world->irr.history(obj.prefix)) {
      if (other.object.origin != obj.origin &&
          other.lifetime.begin < reg.lifetime.begin) {
        ++conflicting_origins;
        flagged.push_back("CONFLICT     " + obj.prefix.to_string() +
                          " origin " + obj.origin.to_string() +
                          " supersedes " + other.object.origin.to_string());
        break;
      }
    }
  }

  std::cout << "=== IRR hygiene audit (" << world->irr.source() << ", "
            << world->irr.total_registrations() << " registrations) ===\n\n";
  std::cout << "registrations of unallocated space: "
            << unallocated_registrations << "\n"
            << "records conflicting with an older origin: "
            << conflicting_origins << "\n";

  std::cout << "\nSuspicious ORG-IDs (many objects, many origins, "
               "register-then-announce):\n";
  util::TextTable table(
      {"ORG-ID", "objects", "distinct origins", "announce<30d", "verdict"});
  for (const auto& [id, s] : orgs) {
    bool suspicious = s.objects >= 5 && s.origins.size() >= 3 &&
                      s.created_then_announced * 2 > s.objects;
    if (s.objects < 5) continue;
    table.add_row({id, std::to_string(s.objects),
                   std::to_string(s.origins.size()),
                   std::to_string(s.created_then_announced),
                   suspicious ? "SUSPICIOUS" : "ok"});
  }
  table.print(std::cout);

  std::cout << "\nFlagged records (first 15):\n";
  for (size_t i = 0; i < flagged.size() && i < 15; ++i) {
    std::cout << "  " << flagged[i] << "\n";
  }
  return 0;
}
