// The trie compile: the differential oracle for SnapshotCache and
// svc::compile_snapshot.
//
// compile_snapshot reads every per-day set from a SnapshotCache's flat
// lifetime tables and paints ROV in one SegmentMap::from_nested sweep over
// the cache's route_validity(). This header computes the same snapshot the
// slow, obvious way, with no cache:
//   - each per-day set from its substrate's trie function, or from a scan
//     of the whole history (IRR, DROP);
//   - each announced prefix validated per origin through
//     RoaArchive::validate_route, then painted least-specific-first through
//     SegmentMap::assign (the paint stream::Applier::compact also runs).
// compile_snapshot() honours the Study's DataQuality ledger the way
// svc::compile_snapshot does, so a degraded day compiles to the same bytes
// on both sides. It ignores the Study's cache and pool.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/drop_index.hpp"
#include "core/engine.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "drop/category.hpp"
#include "svc/snapshot.hpp"

namespace droplens::oracle {

using RouteValidity = core::SnapshotCache::RouteValidity;

/// Space covered by route objects live in the IRR on `d`.
inline net::IntervalSet irr_space(const irr::Database& irr, net::Date d) {
  net::IntervalSet covered;
  for (const irr::Registration& reg : irr.all_history()) {
    if (reg.live_on(d)) covered.insert(reg.object.prefix);
  }
  return covered;
}

/// Space actively DROP-listed on `d`.
inline net::IntervalSet drop_space(const drop::DropList& drop, net::Date d) {
  net::IntervalSet active;
  for (const net::Prefix& p : drop.snapshot(d)) active.insert(p);
  return active;
}

/// Every prefix announced on `d`, in prefix order, with the worst
/// validate_route status over its origins that day under `tals`.
inline std::vector<RouteValidity> route_validity(
    const bgp::CollectorFleet& fleet, const rpki::RoaArchive& roas,
    net::Date d, rpki::TalSet tals) {
  std::vector<RouteValidity> out;
  for (const net::Prefix& p : fleet.announced_prefixes_on(d)) {
    rpki::Validity worst = rpki::Validity::kNotFound;
    for (net::Asn origin : fleet.origins_on(p, d)) {
      const rpki::Validity v = roas.validate_route(p, origin, d, tals);
      if (v == rpki::Validity::kInvalid) {
        worst = v;
        break;
      }
      if (v == rpki::Validity::kValid) worst = v;
    }
    out.push_back({p, worst});
  }
  return out;
}

/// svc::compile_snapshot through the tries: the same Snapshot, byte for
/// byte.
inline std::shared_ptr<const svc::Snapshot> compile_snapshot(
    const core::Study& s, const core::DropIndex& index, net::Date d,
    uint64_t version) {
  uint8_t degraded = 0;
  auto available = [&](core::Feed f) {
    if (core::engine::day_available(s, f, d)) return true;
    degraded |= static_cast<uint8_t>(uint8_t{1} << static_cast<uint8_t>(f));
    return false;
  };

  net::IntervalSet routed, allocated, as0, irr;
  const bool bgp_ok = available(core::Feed::kBgpUpdates);
  if (bgp_ok) routed = s.fleet.routed_space(d);
  if (available(core::Feed::kDelegations)) {
    allocated = s.registry.allocated_space(d);
  }
  const bool roas_ok = available(core::Feed::kRoas);
  if (roas_ok) {
    as0 = s.roas.signed_space(d, rpki::TalSet::all(),
                              rpki::RoaArchive::Filter::kAs0Only);
  }
  if (available(core::Feed::kIrr)) irr = irr_space(s.irr, d);

  // DROP labels: the union of every listing's categories over a point.
  net::SegmentMap<svc::Snapshot::DropInfo> drop;
  if (available(core::Feed::kDropFeed)) {
    for (const core::DropEntry& entry : index.entries()) {
      if (!s.drop.listed_on(entry.prefix, d)) continue;
      svc::Snapshot::DropInfo info;
      for (drop::Category c : drop::kAllCategories) {
        if (entry.categories.has(c)) {
          info.categories |= uint8_t{1} << static_cast<int>(c);
        }
      }
      info.incident = entry.incident;
      drop.merge(entry.prefix, info, svc::Snapshot::DropInfo::merge);
    }
  }
  drop.finalize();

  // ROV: least-specific-first, so a point answers with its most specific
  // covering announcement. Equal-length prefixes are disjoint; the stable
  // sort keeps the paint deterministic anyway.
  net::SegmentMap<uint8_t> rov;
  if (bgp_ok) {
    std::vector<RouteValidity> routes =
        route_validity(s.fleet, s.roas, d,
                       roas_ok ? rpki::TalSet::defaults() : rpki::TalSet());
    std::stable_sort(routes.begin(), routes.end(),
                     [](const RouteValidity& a, const RouteValidity& b) {
                       return a.prefix.length() < b.prefix.length();
                     });
    for (const RouteValidity& r : routes) {
      svc::RovStatus status = svc::RovStatus::kNotFound;
      if (r.validity == rpki::Validity::kValid) status = svc::RovStatus::kValid;
      if (r.validity == rpki::Validity::kInvalid) {
        status = svc::RovStatus::kInvalid;
      }
      rov.assign(r.prefix, static_cast<uint8_t>(status));
    }
    rov.finalize();
  }

  return std::make_shared<const svc::Snapshot>(
      version, d, degraded, std::move(routed), std::move(as0), std::move(irr),
      std::move(allocated), std::move(drop), std::move(rov),
      svc::administering_rirs(s.registry));
}

}  // namespace droplens::oracle
