#include "core/irr_analysis.hpp"

#include <algorithm>
#include <set>

#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"

namespace droplens::core {

namespace {

// Per-entry facts, computed independently (IRR history walks dominate) and
// merged sequentially in entry order so forged_cases keeps its order.
struct IrrProbe {
  bool has_route_object = false;
  bool created_recently = false;
  bool removed_after = false;
  bool hijacked_with_asn = false;
  bool no_object_or_different_asn = false;
  std::optional<ForgedIrrCase> forged;
};

IrrProbe probe_entry(const Study& study, const DropEntry& e) {
  IrrProbe p;

  // Route object (exact or more specific) live at some point in the 7-day
  // window before listing.
  std::vector<irr::Registration> regs;
  for (int k = 0; k <= 7 && regs.empty(); ++k) {
    regs = study.irr.exact_or_more_specific(e.prefix, e.listed - k);
  }
  if (!regs.empty()) {
    p.has_route_object = true;
    for (const irr::Registration& reg : regs) {
      if (e.listed - reg.lifetime.begin <= 31 &&
          reg.lifetime.begin <= e.listed) {
        p.created_recently = true;
      }
    }
    // Removed within a month after listing? Check the full history.
    for (const irr::Registration& reg : study.irr.history(e.prefix)) {
      if (reg.lifetime.end != net::DateRange::unbounded() &&
          reg.lifetime.end >= e.listed &&
          reg.lifetime.end - e.listed <= 31) {
        p.removed_after = true;
      }
    }
  }

  // Hijacker-ASN matching (excluding the incidents, per §3.1).
  if (e.incident) return p;
  if (!e.is(drop::Category::kHijacked) || !e.cls.malicious_asn) return p;
  p.hijacked_with_asn = true;
  net::Asn hijacker = *e.cls.malicious_asn;
  std::vector<irr::Registration> history = study.irr.history(e.prefix);
  const irr::Registration* forged = nullptr;
  const irr::Registration* older = nullptr;
  for (const irr::Registration& reg : history) {
    if (reg.object.origin == hijacker) forged = &reg;
  }
  for (const irr::Registration& reg : history) {
    if (forged && reg.object.origin != hijacker &&
        reg.lifetime.begin < forged->lifetime.begin) {
      older = &reg;
    }
  }
  if (!forged) {
    p.no_object_or_different_asn = true;
    return p;
  }
  ForgedIrrCase c;
  c.prefix = e.prefix;
  c.hijacking_asn = hijacker;
  c.org_id = forged->object.org_id;
  c.irr_created = forged->lifetime.begin;
  c.preexisting_entry = older != nullptr;
  auto first_bgp = study.fleet.first_announced(e.prefix);
  // "First announced" for the hijack: the first episode whose origin is
  // the hijacking ASN (old owner episodes don't count).
  std::optional<net::Date> hijack_bgp;
  for (const bgp::Episode& ep : study.fleet.episodes(e.prefix)) {
    if (ep.origin() == hijacker &&
        (!hijack_bgp || ep.range.begin < *hijack_bgp)) {
      hijack_bgp = ep.range.begin;
    }
  }
  if (!hijack_bgp) hijack_bgp = first_bgp;
  c.days_irr_to_bgp = hijack_bgp ? *hijack_bgp - c.irr_created : 0;
  c.days_irr_to_drop = e.listed - c.irr_created;
  p.forged = std::move(c);
  return p;
}

}  // namespace

IrrResult analyze_irr(const Study& study, const DropIndex& index) {
  obs::Span span("core.irr_analysis");
  IrrResult r;

  const std::vector<DropEntry>& entries = index.entries();
  std::vector<IrrProbe> probes(entries.size());
  engine::parallel_for(study, entries.size(), [&](size_t i) {
    probes[i] = probe_entry(study, entries[i]);
  });
  for (size_t i = 0; i < entries.size(); ++i) {
    const DropEntry& e = entries[i];
    IrrProbe& p = probes[i];
    ++r.drop_prefix_count;
    r.drop_space.insert(e.prefix);
    if (p.has_route_object) {
      ++r.prefixes_with_route_object;
      r.route_object_space.insert(e.prefix);
      if (p.created_recently) ++r.created_within_month_before;
      if (p.removed_after) ++r.removed_within_month_after;
    }
    if (p.hijacked_with_asn) ++r.hijacked_with_asn;
    if (p.no_object_or_different_asn) ++r.no_object_or_different_asn;
    if (p.forged) {
      ++r.hijacker_asn_in_route_object;
      if (p.forged->preexisting_entry) ++r.preexisting_entries;
      if (p.forged->days_irr_to_bgp < -365) ++r.late_records;
      ++r.forged_org_histogram[p.forged->org_id];
      r.forged_cases.push_back(std::move(*p.forged));
    }
  }

  // Distinct hijacking ASNs and ORG concentration.
  {
    std::set<uint32_t> asns;
    for (const ForgedIrrCase& c : r.forged_cases) {
      asns.insert(c.hijacking_asn.value());
    }
    r.distinct_hijacking_asns = static_cast<int>(asns.size());

    std::vector<std::pair<std::string, int>> orgs(
        r.forged_org_histogram.begin(), r.forged_org_histogram.end());
    std::sort(orgs.begin(), orgs.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    for (size_t i = 0; i < orgs.size() && i < 3; ++i) {
      r.top3_org_prefixes += orgs[i].second;
    }
    // Does one ORG's set of hijacks share a common transit AS?
    for (const auto& [org, count] : orgs) {
      if (count < 5) continue;
      std::map<uint32_t, int> transit_votes;
      int episodes_seen = 0;
      for (const ForgedIrrCase& c : r.forged_cases) {
        if (c.org_id != org) continue;
        for (const bgp::Episode& ep : study.fleet.episodes(c.prefix)) {
          if (ep.origin() != c.hijacking_asn) continue;
          ++episodes_seen;
          for (net::Asn hop : ep.path->hops()) {
            if (hop != c.hijacking_asn) ++transit_votes[hop.value()];
          }
        }
      }
      for (const auto& [asn, votes] : transit_votes) {
        if (votes == episodes_seen && episodes_seen >= 5) {
          r.serial_common_transit = net::Asn(asn);
          r.serial_org = org;
        }
      }
      if (r.serial_common_transit) break;
    }
  }

  // §5's closing observation: a route object registered for a prefix that
  // was unallocated at registration time. Chunked parallel count — partial
  // sums commute.
  const std::vector<irr::Registration> all = study.irr.all_history();
  const size_t chunks = std::min<size_t>(all.size(), study.pool ? 32 : 1);
  std::vector<int> unallocated_counts(chunks, 0);
  engine::parallel_for(study, chunks, [&](size_t c) {
    const size_t begin = all.size() * c / chunks;
    const size_t end = all.size() * (c + 1) / chunks;
    for (size_t i = begin; i < end; ++i) {
      if (study.registry.is_fully_unallocated(all[i].object.prefix,
                                              all[i].lifetime.begin)) {
        ++unallocated_counts[c];
      }
    }
  });
  for (int n : unallocated_counts) r.unallocated_with_route_object += n;
  return r;
}

}  // namespace droplens::core
