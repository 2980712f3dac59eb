#include "rpki/as0_policy.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "net/cidr_cover.hpp"

namespace droplens::rpki {

namespace {

// An allocation live on some scheduled dates but not all (it starts or ends
// inside the schedule), reduced to what the free pool needs.
struct AllocationRow {
  net::IntervalSet::Interval range;
  net::DateRange lifetime;
};

// What a sync pass knows about one RIR with an AS0 policy. Allocations live
// on every scheduled date (all but a few hundred at paper scale) are folded
// into `pool` once; only the rest are rescanned per date. Both row lists are
// in prefix order (the trie walks' order). `roas` mirrors the archive's
// records under the RIR's AS0 TAL — same order, including the order of
// records sharing a prefix — and is updated alongside every publish and
// revoke, so the pass never walks the archive again.
struct PolicyRows {
  rir::Rir rir;
  Tal tal;
  net::Date start;
  net::IntervalSet pool;  // administered minus allocated on every date
  std::vector<AllocationRow> allocations;
  std::vector<RoaRecord> roas;
};

// The free pool's minimal CIDR cover on `d`, in prefix order.
std::vector<net::Prefix> wanted_prefixes(const PolicyRows& rows,
                                         net::Date d) {
  std::vector<net::IntervalSet::Interval> live;
  for (const AllocationRow& a : rows.allocations) {
    if (a.lifetime.contains(d)) live.push_back(a.range);
  }
  return net::cidr_cover(net::IntervalSet::set_difference(
      rows.pool, net::IntervalSet::from_sorted(live)));
}

// One RIR on one date: merge the wanted prefixes against the live ROA rows
// (both sorted by prefix). A live row whose prefix is not wanted is revoked;
// a wanted prefix without a live row is published.
size_t sync_day(RoaArchive& archive, PolicyRows& rows, net::Date d) {
  std::vector<net::Prefix> want = wanted_prefixes(rows, d);
  std::vector<RoaRecord*> have;
  for (RoaRecord& r : rows.roas) {
    if (r.live_on(d)) have.push_back(&r);
  }

  size_t ops = 0;
  std::vector<RoaRecord> published;
  auto h = have.begin();
  auto w = want.begin();
  while (h != have.end() || w != want.end()) {
    if (w == want.end() || (h != have.end() && (*h)->roa.prefix < *w)) {
      archive.revoke((*h)->roa, d);
      (*h)->lifetime.end = d;
      ++h;
      ++ops;
    } else if (h == have.end() || *w < (*h)->roa.prefix) {
      Roa roa(*w, net::Asn::as0(), rows.tal);
      archive.publish(roa, d);
      published.push_back(
          RoaRecord{roa, net::DateRange{d, net::DateRange::unbounded()}});
      ++w;
      ++ops;
    } else {
      // Wanted and already signed: keep every live row of this prefix.
      while (h != have.end() && (*h)->roa.prefix == *w) ++h;
      ++w;
    }
  }

  // New records go after the existing ones of their prefix, as they do in
  // the archive's per-prefix lists; inplace_merge is stable.
  size_t old_size = rows.roas.size();
  rows.roas.insert(rows.roas.end(), published.begin(), published.end());
  std::inplace_merge(rows.roas.begin(), rows.roas.begin() + old_size,
                     rows.roas.end(),
                     [](const RoaRecord& a, const RoaRecord& b) {
                       return a.roa.prefix < b.roa.prefix;
                     });
  return ops;
}

}  // namespace

std::optional<net::Date> as0_policy_date(rir::Rir rir) {
  switch (rir) {
    case rir::Rir::kApnic: return net::Date::from_ymd(2020, 9, 2);
    case rir::Rir::kLacnic: return net::Date::from_ymd(2021, 6, 23);
    default: return std::nullopt;
  }
}

size_t As0PolicyEngine::sync(rir::Rir rir, net::Date d) {
  return run(std::span<const rir::Rir>(&rir, 1),
             std::span<const net::Date>(&d, 1));
}

size_t As0PolicyEngine::sync_all(net::Date d) {
  return run(rir::kAllRirs, std::span<const net::Date>(&d, 1));
}

size_t As0PolicyEngine::sync_schedule(std::span<const net::Date> dates) {
  return run(rir::kAllRirs, dates);
}

size_t As0PolicyEngine::run(std::span<const rir::Rir> rirs,
                            std::span<const net::Date> dates) {
  // Only RIRs whose policy is active on some scheduled date take part.
  std::vector<PolicyRows> policies;
  for (rir::Rir r : rirs) {
    std::optional<Tal> tal = as0_tal(r);
    std::optional<net::Date> start = as0_policy_date(r);
    if (!tal || !start ||
        std::none_of(dates.begin(), dates.end(),
                     [&](net::Date d) { return d >= *start; })) {
      continue;
    }
    policies.push_back(PolicyRows{r, *tal, *start, {}, {}, {}});
  }
  if (policies.empty()) return 0;

  std::array<PolicyRows*, rir::kAllRirs.size()> by_rir{};
  std::array<PolicyRows*, kAllTals.size()> by_tal{};
  for (PolicyRows& p : policies) {
    by_rir[static_cast<size_t>(p.rir)] = &p;
    by_tal[static_cast<size_t>(p.tal)] = &p;
  }
  auto [first, last] = std::minmax_element(dates.begin(), dates.end());
  std::array<net::IntervalSet, rir::kAllRirs.size()> allocated_throughout;
  registry_.for_each_allocation([&](const rir::Allocation& a) {
    PolicyRows* p = by_rir[static_cast<size_t>(a.rir)];
    // Skip allocations that are live on no scheduled date.
    if (!p || a.lifetime.end <= *first || *last < a.lifetime.begin) return;
    if (a.lifetime.contains(*first) && a.lifetime.contains(*last)) {
      // Prefix order makes this an append at the end of the set.
      allocated_throughout[static_cast<size_t>(a.rir)].insert(a.prefix);
    } else {
      p->allocations.push_back(AllocationRow{
          net::IntervalSet::Interval{a.prefix.first(), a.prefix.end()},
          a.lifetime});
    }
  });
  for (PolicyRows& p : policies) {
    p.pool = net::IntervalSet::set_difference(
        registry_.administered(p.rir),
        allocated_throughout[static_cast<size_t>(p.rir)]);
  }
  archive_.for_each_record([&](const RoaRecord& r) {
    if (PolicyRows* p = by_tal[static_cast<size_t>(r.roa.tal)]) {
      p->roas.push_back(r);
    }
  });

  size_t ops = 0;
  for (net::Date d : dates) {
    for (PolicyRows& p : policies) {
      if (d >= p.start) ops += sync_day(archive_, p, d);
    }
  }
  return ops;
}

}  // namespace droplens::rpki
