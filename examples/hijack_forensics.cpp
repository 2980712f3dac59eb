// Hijack forensics: reconstruct the full history of one prefix across every
// data set — BGP origination episodes, ROA history, IRR registrations,
// allocation status, and DROP listings — the way Fig 4 was assembled.
//
//   $ ./hijack_forensics [prefix]       (default: 132.255.0.0/22)
//   $ ./hijack_forensics --full [prefix]
//
// Any other flag, a second prefix, or a prefix that does not parse prints
// the usage line and exits 2 before the world is generated.
#include <cstring>
#include <iostream>
#include <optional>

#include "core/study.hpp"
#include "sim/generator.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

using namespace droplens;

namespace {

std::string date_or_open(net::Date d) {
  return d == net::DateRange::unbounded() ? "..." : d.to_string();
}

int usage(const std::string& why) {
  std::cerr << why << "\nusage: hijack_forensics [--full] [prefix]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::optional<net::Prefix> target;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--full") == 0) {
      full = true;
    } else if (std::strncmp(arg, "--", 2) == 0 || target) {
      return usage(std::string("unexpected argument: ") + arg);
    } else {
      try {
        target = net::Prefix::parse(arg);
      } catch (const ParseError& e) {
        return usage(e.what());
      } catch (const InvariantError& e) {
        return usage(e.what());
      }
    }
  }
  const net::Prefix prefix =
      target.value_or(net::Prefix::parse("132.255.0.0/22"));
  sim::ScenarioConfig config =
      full ? sim::ScenarioConfig{} : sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);

  std::cout << "=== Forensic report for " << prefix.to_string() << " ===\n";

  // Allocation history.
  std::cout << "\n-- Registry --\n";
  auto history = world->registry.history(prefix);
  if (auto rir = world->registry.rir_of(prefix)) {
    std::cout << "administered by " << rir::display_name(*rir) << "\n";
  }
  if (history.empty()) {
    std::cout << "never allocated (bogon space)\n";
  }
  for (const rir::Allocation& a : history) {
    std::cout << a.prefix.to_string() << " allocated to '" << a.holder
              << "' " << a.lifetime.begin.to_string() << " .. "
              << date_or_open(a.lifetime.end) << "\n";
  }

  // BGP.
  std::cout << "\n-- BGP origination episodes --\n";
  util::TextTable bgp({"prefix", "from", "to", "AS path"});
  for (const auto& [p, e] : world->fleet.episodes_covered_by(prefix)) {
    bgp.add_row({p.to_string(), e.range.begin.to_string(),
                 date_or_open(e.range.end), e.path->to_string()});
  }
  bgp.print(std::cout);

  // RPKI.
  std::cout << "\n-- ROA history --\n";
  auto records = world->roas.records_covering(prefix);
  if (records.empty()) std::cout << "(never signed)\n";
  for (const rpki::RoaRecord& r : records) {
    std::cout << r.roa.to_string() << "  " << r.lifetime.begin.to_string()
              << " .. " << date_or_open(r.lifetime.end) << "\n";
  }

  // IRR.
  std::cout << "\n-- IRR route objects --\n";
  auto regs = world->irr.history(prefix);
  if (regs.empty()) std::cout << "(none)\n";
  for (const irr::Registration& r : regs) {
    std::cout << r.object.prefix.to_string() << " origin "
              << r.object.origin.to_string() << " org " << r.object.org_id
              << "  " << r.lifetime.begin.to_string() << " .. "
              << date_or_open(r.lifetime.end) << "\n";
  }

  // DROP.
  std::cout << "\n-- DROP listings --\n";
  auto listings = world->drop.listings_of(prefix);
  if (listings.empty()) std::cout << "(never listed)\n";
  for (const drop::Listing& l : listings) {
    std::cout << "listed " << l.listed.begin.to_string() << " .. "
              << date_or_open(l.listed.end);
    if (!l.sbl_id.empty()) {
      std::cout << "  (" << l.sbl_id << ")";
      if (const drop::SblRecord* rec = world->sbl.find(l.sbl_id)) {
        std::cout << "\n  SBL: " << rec->text;
      }
    }
    std::cout << "\n";
  }

  // Verdict: cross-check origin against the ROA at each episode start.
  std::cout << "\n-- ROV verdicts --\n";
  for (const auto& [p, e] : world->fleet.episodes_covered_by(prefix)) {
    rpki::Validity v =
        world->roas.validate_route(p, e.origin(), e.range.begin);
    std::cout << p.to_string() << " @ " << e.range.begin.to_string()
              << " origin " << e.origin().to_string() << ": "
              << rpki::to_string(v) << "\n";
  }
  return 0;
}
