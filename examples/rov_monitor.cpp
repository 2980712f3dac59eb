// ROV monitor: replay a peer's BGP update stream through a PeerRib while
// validating every announcement against the ROA set of that day (RFC 6811),
// under a configurable TAL set. Demonstrates what a route-origin-validating
// operator — with or without the APNIC/LACNIC AS0 TALs — would have rejected
// during the study window.
//
//   $ ./rov_monitor [--full] [--with-as0-tals]
//
// Any other argument prints the usage line and exits 2 before the world is
// generated.
#include <cstring>
#include <iostream>
#include <map>

#include "bgp/rib.hpp"
#include "sim/generator.hpp"
#include "util/text_table.hpp"

using namespace droplens;

namespace {

int usage(const char* arg) {
  std::cerr << "unknown argument: " << arg
            << "\nusage: rov_monitor [--full] [--with-as0-tals]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool with_as0 = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--with-as0-tals") == 0) {
      with_as0 = true;
    } else {
      return usage(argv[i]);
    }
  }
  sim::ScenarioConfig config =
      full ? sim::ScenarioConfig{} : sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  rpki::TalSet tals =
      with_as0 ? rpki::TalSet::all() : rpki::TalSet::defaults();

  std::cout << "ROV monitor on peer 0 (" << world->fleet.peer(0).name
            << "), TALs: " << (with_as0 ? "production + AS0" : "production")
            << "\n\n";

  bgp::PeerRib rib;
  std::map<rpki::Validity, size_t> tally;
  size_t rejected = 0;
  std::vector<std::string> alerts;
  for (const bgp::Update& u : world->fleet.update_stream(0)) {
    if (u.date < config.window_begin || u.date >= config.window_end) continue;
    if (u.type == bgp::UpdateType::kWithdraw) {
      rib.apply(u);
      continue;
    }
    rpki::Validity v =
        world->roas.validate_route(u.prefix, u.path.origin(), u.date, tals);
    ++tally[v];
    if (v == rpki::Validity::kInvalid) {
      ++rejected;  // an ROV-enforcing router drops the route
      if (alerts.size() < 12) {
        alerts.push_back(u.date.to_string() + "  " + u.prefix.to_string() +
                         " origin " + u.path.origin().to_string() +
                         "  path [" + u.path.to_string() + "]");
      }
      continue;
    }
    rib.apply(u);
  }

  util::TextTable table({"validity", "announcements"});
  table.add_row({"valid", std::to_string(tally[rpki::Validity::kValid])});
  table.add_row({"not-found", std::to_string(tally[rpki::Validity::kNotFound])});
  table.add_row({"invalid (rejected)", std::to_string(rejected)});
  table.print(std::cout);

  std::cout << "\nfinal RIB size: " << rib.size() << " routes\n";
  std::cout << "\nFirst rejected announcements:\n";
  for (const std::string& a : alerts) std::cout << "  " << a << "\n";

  if (!with_as0) {
    std::cout << "\nHint: rerun with --with-as0-tals to see how many extra "
                 "routes the APNIC/LACNIC AS0 TALs would reject (§6.2.2).\n";
  }
  return 0;
}
