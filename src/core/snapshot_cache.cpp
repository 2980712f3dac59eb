#include "core/snapshot_cache.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "rpki/tal.hpp"
#include "util/error.hpp"

namespace droplens::core {

// Rows keep only what a day scan reads: the prefix packed as (first
// address, length), the lifetime, and the fields a day filter tests — no
// strings, no shared AsPath. Each table is in prefix order (the trie walk's
// order), so the rows live on any day are already sorted by first address,
// and one prefix's rows are adjacent.
struct SnapshotCache::Tables {
  struct Episode {
    uint32_t first;
    net::Date begin, end;
    uint32_t origin;
    uint8_t length;
  };
  struct Allocation {
    uint32_t first;
    net::Date begin, end;
    uint8_t length;
    uint8_t rir;
  };
  struct Roa {
    uint32_t first;
    net::Date begin, end;
    uint32_t asn;
    uint8_t length;
    uint8_t max_length;
    uint8_t tal;
  };
  std::vector<Episode> episodes;
  std::vector<Allocation> allocations;
  std::vector<Roa> roas;
};

namespace {

template <typename Row>
bool live_on(const Row& r, net::Date d) {
  return r.begin <= d && d < r.end;
}

template <typename Row>
uint64_t end_of(const Row& r) {
  return uint64_t{r.first} + (uint64_t{1} << (32 - r.length));
}

/// The space of the rows live on `d` that `keep` accepts: one scan, and the
/// table order is the sorted order from_sorted needs. Nested and adjacent
/// rows merge during the scan, so the scratch array stays the size of the
/// result (~10K routed intervals from ~200K live episodes).
template <typename Row, typename Keep>
net::IntervalSet live_space(const std::vector<Row>& rows, net::Date d,
                            Keep&& keep) {
  std::vector<net::IntervalSet::Interval> ivs;
  for (const Row& r : rows) {
    if (!live_on(r, d) || !keep(r)) continue;
    if (!ivs.empty() && r.first <= ivs.back().end) {
      ivs.back().end = std::max(ivs.back().end, end_of(r));
    } else {
      ivs.push_back({r.first, end_of(r)});
    }
  }
  return net::IntervalSet::from_sorted(ivs);
}

/// One computed set, counted once in `counter`. A substrate that cannot
/// produce the day must not abort the run: the set comes back empty and
/// callers degrade per day instead.
template <typename Compute>
SnapshotCache::DaySet compute_day(obs::Counter counter, Compute&& compute) {
  counter.inc();
  try {
    return compute();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

SnapshotCache::SnapshotCache(const rir::Registry& registry,
                             const bgp::CollectorFleet& fleet,
                             const rpki::RoaArchive& roas,
                             const drop::DropList& drop,
                             const irr::Database* irr)
    : registry_(registry), fleet_(fleet), roas_(roas), drop_(drop), irr_(irr) {
  if (!irr_) throw InvariantError("SnapshotCache needs an IRR database");
  computed_sets_ =
      obs::counter("droplens_cache_misses_total", {},
                   "SnapshotCache lookups that computed a substrate");
}

SnapshotCache::~SnapshotCache() = default;

const SnapshotCache::Tables& SnapshotCache::tables() const {
  std::call_once(tables_once_, [this] {
    auto t = std::make_unique<Tables>();
    fleet_.for_each_episode([&](const net::Prefix& p, const bgp::Episode& e) {
      t->episodes.push_back({p.network().value(), e.range.begin, e.range.end,
                             e.origin().value(),
                             static_cast<uint8_t>(p.length())});
    });
    registry_.for_each_allocation([&](const rir::Allocation& a) {
      t->allocations.push_back({a.prefix.network().value(), a.lifetime.begin,
                                a.lifetime.end,
                                static_cast<uint8_t>(a.prefix.length()),
                                static_cast<uint8_t>(a.rir)});
    });
    t->roas.reserve(roas_.total_published());
    roas_.for_each_record([&](const rpki::RoaRecord& r) {
      t->roas.push_back({r.roa.prefix.network().value(), r.lifetime.begin,
                         r.lifetime.end, r.roa.asn.value(),
                         static_cast<uint8_t>(r.roa.prefix.length()),
                         static_cast<uint8_t>(r.roa.max_length),
                         static_cast<uint8_t>(r.roa.tal)});
    });
    t->episodes.shrink_to_fit();
    t->allocations.shrink_to_fit();
    tables_ = std::move(t);
  });
  return *tables_;
}

SnapshotCache::DaySet SnapshotCache::routed_space(net::Date d) const {
  return compute_day(computed_sets_, [&] {
    return live_space(tables().episodes, d, [](const auto&) { return true; });
  });
}

SnapshotCache::DaySet SnapshotCache::allocated_space(net::Date d) const {
  return compute_day(computed_sets_, [&] {
    return live_space(tables().allocations, d,
                      [](const auto&) { return true; });
  });
}

SnapshotCache::DaySet SnapshotCache::signed_space(
    net::Date d, rpki::TalSet tals, rpki::RoaArchive::Filter filter) const {
  return compute_day(computed_sets_, [&] {
    using Filter = rpki::RoaArchive::Filter;
    return live_space(tables().roas, d, [&](const Tables::Roa& r) {
      if (!tals.has(static_cast<rpki::Tal>(r.tal))) return false;
      if (filter == Filter::kAs0Only) return r.asn == net::Asn::kAs0Value;
      if (filter == Filter::kNonAs0Only) return r.asn != net::Asn::kAs0Value;
      return true;
    });
  });
}

SnapshotCache::DaySet SnapshotCache::free_pool(rir::Rir rir,
                                               net::Date d) const {
  return compute_day(computed_sets_, [&] {
    const net::IntervalSet allocated = live_space(
        tables().allocations, d, [&](const Tables::Allocation& a) {
          return a.rir == static_cast<uint8_t>(rir);
        });
    return net::IntervalSet::set_difference(registry_.administered(rir),
                                            allocated);
  });
}

SnapshotCache::DaySet SnapshotCache::drop_space(net::Date d) const {
  return compute_day(computed_sets_, [&] {
    net::IntervalSet active;
    for (const net::Prefix& p : drop_.snapshot(d)) active.insert(p);
    return active;
  });
}

SnapshotCache::DaySet SnapshotCache::irr_space(net::Date d) const {
  return compute_day(computed_sets_, [&] {
    net::IntervalSet covered;
    for (const irr::Registration& reg : irr_->all_history()) {
      if (reg.live_on(d)) covered.insert(reg.object.prefix);
    }
    return covered;
  });
}

std::vector<SnapshotCache::RouteValidity> SnapshotCache::route_validity(
    net::Date d, rpki::TalSet tals) const {
  const Tables& t = tables();
  std::vector<const Tables::Roa*> live;
  for (const Tables::Roa& r : t.roas) {
    if (live_on(r, d) && tals.has(static_cast<rpki::Tal>(r.tal))) {
      live.push_back(&r);
    }
  }

  std::vector<RouteValidity> out;
  // The live ROAs at or before the current route in prefix order that
  // still contain it: a stack of nested prefixes, the most specific on top.
  std::vector<const Tables::Roa*> covering;
  std::vector<uint32_t> origins;
  size_t next_roa = 0;
  const std::vector<Tables::Episode>& eps = t.episodes;
  for (size_t i = 0; i < eps.size();) {
    const Tables::Episode& route = eps[i];
    origins.clear();
    for (; i < eps.size() && eps[i].first == route.first &&
           eps[i].length == route.length;
         ++i) {
      if (live_on(eps[i], d)) origins.push_back(eps[i].origin);
    }
    if (origins.empty()) continue;

    // CIDR blocks nest or are disjoint, so a stacked ROA that ends at or
    // before a later prefix's first address can cover nothing after it.
    for (; next_roa < live.size(); ++next_roa) {
      const Tables::Roa& r = *live[next_roa];
      if (r.first > route.first ||
          (r.first == route.first && r.length > route.length)) {
        break;
      }
      while (!covering.empty() && end_of(*covering.back()) <= r.first) {
        covering.pop_back();
      }
      covering.push_back(&r);
    }
    while (!covering.empty() && end_of(*covering.back()) <= route.first) {
      covering.pop_back();
    }

    // RFC 6811 per origin: not-found without a covering ROA; otherwise
    // valid when some non-AS0 ROA names the origin and allows the length.
    rpki::Validity worst = rpki::Validity::kNotFound;
    if (!covering.empty()) {
      worst = rpki::Validity::kValid;
      for (uint32_t origin : origins) {
        bool matched = false;
        for (const Tables::Roa* r : covering) {
          if (r->asn != net::Asn::kAs0Value && r->asn == origin &&
              route.length <= r->max_length) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          worst = rpki::Validity::kInvalid;
          break;
        }
      }
    }
    out.push_back({net::Prefix(net::Ipv4(route.first), route.length), worst});
  }
  return out;
}

}  // namespace droplens::core
