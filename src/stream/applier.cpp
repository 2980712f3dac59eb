#include "stream/applier.hpp"

#include <algorithm>
#include <utility>

#include "rpki/tal.hpp"

namespace droplens::stream {

namespace {

using svc::RovStatus;

/// A live ROA's validation-relevant fields, gathered by the covering walk.
struct CoveringRoa {
  uint32_t asn;
  uint8_t max_length;
};

}  // namespace

void Applier::seed_rir(const rir::Registry& registry) {
  rir_ = svc::administering_rirs(registry);
}

void Applier::refresh_rov(const net::Prefix& p, LiveRoute& route) const {
  // The live ROAs a default-configured validator would consider for `p` —
  // what RoaArchive::covering(p, d, TalSet::defaults()) returns.
  constexpr rpki::TalSet kDefaults = rpki::TalSet::defaults();
  std::vector<CoveringRoa> covering;
  roas_.for_each_covering(
      p, [&](const net::Prefix&, const std::vector<RoaEntry>& entries) {
        for (const RoaEntry& r : entries) {
          if (kDefaults.has(static_cast<rpki::Tal>(r.tal))) {
            covering.push_back(CoveringRoa{r.asn, r.max_length});
          }
        }
      });

  RovStatus worst = RovStatus::kNotFound;
  if (!covering.empty()) {
    for (const ActiveRoute& active : route.entries) {
      bool valid = false;
      for (const CoveringRoa& roa : covering) {
        // RFC 6811 match; an AS0 ROA never matches (it only invalidates).
        if (roa.asn != 0 && active.origin == roa.asn &&
            p.length() <= roa.max_length) {
          valid = true;
          break;
        }
      }
      if (!valid) {
        worst = RovStatus::kInvalid;
        break;
      }
      worst = RovStatus::kValid;
    }
  }
  route.rov = static_cast<uint8_t>(worst);
}

void Applier::refresh_covered(const net::Prefix& p) {
  // Announced prefixes contained in `p` form the contiguous key range
  // [lower_bound(p), first() < p.end()): CIDR blocks nest, so no key in
  // that range can escape `p` (see header).
  for (auto it = routes_.lower_bound(p);
       it != routes_.end() && it->first.first() < p.end(); ++it) {
    refresh_rov(it->first, it->second);
  }
}

bool Applier::apply(const Event& e) {
  switch (e.type) {
    case EventType::kBgpAnnounce: {
      LiveRoute& route = routes_[e.prefix];
      route.entries.push_back(ActiveRoute{e.date, e.value});
      refresh_rov(e.prefix, route);
      break;
    }
    case EventType::kBgpWithdraw: {
      auto it = routes_.find(e.prefix);
      if (it == routes_.end()) break;
      auto& entries = it->second.entries;
      auto victim = entries.end();
      for (auto r = entries.begin(); r != entries.end(); ++r) {
        if (r->origin != e.value) continue;
        if (victim == entries.end() || r->begin < victim->begin) victim = r;
      }
      if (victim == entries.end()) break;
      entries.erase(victim);
      if (entries.empty()) {
        routes_.erase(it);
      } else {
        refresh_rov(e.prefix, it->second);
      }
      ++applied_;
      return true;
    }
    case EventType::kRoaAdd: {
      roas_[e.prefix].push_back(
          RoaEntry{e.value, e.aux, e.aux2});
      refresh_covered(e.prefix);
      break;
    }
    case EventType::kRoaRemove: {
      std::vector<RoaEntry>* entries = roas_.find(e.prefix);
      if (!entries) break;
      auto it = std::find_if(entries->begin(), entries->end(),
                             [&](const RoaEntry& r) {
                               return r.asn == e.value && r.max_length == e.aux &&
                                      r.tal == e.aux2;
                             });
      if (it == entries->end()) break;
      entries->erase(it);
      if (entries->empty()) roas_.erase(e.prefix);
      refresh_covered(e.prefix);
      ++applied_;
      return true;
    }
    case EventType::kDropAdd: {
      drop_[e.prefix].push_back(DropListing{e.aux, e.aux2});
      break;
    }
    case EventType::kDropRemove: {
      auto it = drop_.find(e.prefix);
      if (it == drop_.end()) break;
      auto& listings = it->second;
      auto match = std::find_if(listings.begin(), listings.end(),
                                [&](const DropListing& l) {
                                  return l.categories == e.aux &&
                                         l.incident == e.aux2;
                                });
      if (match == listings.end()) break;
      listings.erase(match);
      if (listings.empty()) drop_.erase(it);
      ++applied_;
      return true;
    }
    case EventType::kIrrAdd: {
      ++irr_[e.prefix];
      break;
    }
    case EventType::kIrrRemove: {
      auto it = irr_.find(e.prefix);
      if (it == irr_.end()) break;
      if (--it->second == 0) irr_.erase(it);
      ++applied_;
      return true;
    }
    case EventType::kDelegationAdd: {
      ++alloc_[e.prefix];
      break;
    }
    case EventType::kDelegationRemove: {
      auto it = alloc_.find(e.prefix);
      if (it == alloc_.end()) break;
      if (--it->second == 0) alloc_.erase(it);
      ++applied_;
      return true;
    }
    default:
      // Flat-diff assertions and unknown types never touch live state.
      break;
  }
  if (e.type == EventType::kBgpAnnounce || e.type == EventType::kRoaAdd ||
      e.type == EventType::kDropAdd || e.type == EventType::kIrrAdd ||
      e.type == EventType::kDelegationAdd) {
    ++applied_;
    return true;
  }
  ++rejected_;
  return false;
}

std::shared_ptr<const svc::Snapshot> Applier::compact(net::Date d,
                                                      uint64_t version) const {
  using Interval = net::IntervalSet::Interval;

  // Boolean spaces: std::map iteration and the trie walk both emit prefixes
  // with nondecreasing first(), which is what from_sorted needs.
  std::vector<Interval> ivs;
  ivs.reserve(routes_.size());
  for (const auto& [p, route] : routes_) {
    ivs.push_back(Interval{p.first(), p.end()});
  }
  net::IntervalSet routed = net::IntervalSet::from_sorted(ivs);

  ivs.clear();
  for (const auto& [p, count] : alloc_) {
    ivs.push_back(Interval{p.first(), p.end()});
  }
  net::IntervalSet allocated = net::IntervalSet::from_sorted(ivs);

  ivs.clear();
  for (const auto& [p, count] : irr_) {
    ivs.push_back(Interval{p.first(), p.end()});
  }
  net::IntervalSet irr = net::IntervalSet::from_sorted(ivs);

  ivs.clear();
  roas_.for_each(
      [&](const net::Prefix& p, const std::vector<RoaEntry>& entries) {
        for (const RoaEntry& r : entries) {
          if (r.asn == 0) {
            ivs.push_back(Interval{p.first(), p.end()});
            break;
          }
        }
      });
  net::IntervalSet as0 = net::IntervalSet::from_sorted(ivs);

  // DROP labels: OR over live listings, exactly the batch merge. Live
  // listings of one prefix all carry the DropIndex entry's (whole-history)
  // bits, so the OR equals what compile_snapshot paints for a listed day.
  net::SegmentMap<svc::Snapshot::DropInfo> drop;
  for (const auto& [p, listings] : drop_) {
    for (const DropListing& l : listings) {
      svc::Snapshot::DropInfo info;
      info.categories = l.categories;
      info.incident = l.incident;
      drop.merge(p, info, svc::Snapshot::DropInfo::merge);
    }
  }
  drop.finalize();

  // ROV paint, least-specific-first. Equal-length distinct prefixes are
  // disjoint, so the within-length order never changes the point-function —
  // the finalized segments match the trie oracle's stable_sort-then-paint
  // and compile_snapshot's from_nested sweep.
  std::vector<std::pair<net::Prefix, uint8_t>> announced;
  announced.reserve(routes_.size());
  for (const auto& [p, route] : routes_) {
    announced.emplace_back(p, route.rov);
  }
  std::stable_sort(announced.begin(), announced.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.length() < b.first.length();
                   });
  net::SegmentMap<uint8_t> rov;
  for (const auto& [p, status] : announced) {
    rov.assign(p, status);
  }
  rov.finalize();

  return std::make_shared<const svc::Snapshot>(
      version, d, /*degraded=*/0, std::move(routed), std::move(as0),
      std::move(irr), std::move(allocated), std::move(drop), std::move(rov),
      rir_);
}

}  // namespace droplens::stream
