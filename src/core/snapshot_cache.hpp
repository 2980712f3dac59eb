// Per-day sets for the analysis engine and the snapshot compile.
//
// Every longitudinal analysis intersects the same interval sets per sampled
// date: routed space (BGP fleet), signed space (ROA archive, per TAL-set and
// AS0 filter), allocated space / free pools (registry), IRR space and the
// DROP active set. svc::compile_snapshot reads four of them for each day it
// compiles.
//
// Lifetime tables: the fleet, registry and ROA archive each hold their whole
// history in a node-per-bit trie, so deriving a day from the trie walks all
// of it. On its first day query the cache flattens each trie once, in one
// walk, into a prefix-ordered table of (prefix, lifetime, the fields a day
// filter reads). A routed, allocated, free-pool or signed set is then one
// linear scan of a table into IntervalSet::from_sorted, and route_validity()
// validates a day's announced prefixes against its ROAs in one merge sweep.
// This is the only path: every Study that reaches an analysis or
// svc::compile_snapshot carries a cache (core/engine.hpp). The substrates'
// own trie functions are the oracle the differential tests compare every
// table scan against (tests/trie_oracle.hpp).
//
// Nothing per day is kept. Each accessor computes its set on every call and
// returns it by value, so a process that compiles many days holds the
// tables and no more. Each computed set counts once in
// droplens_cache_misses_total.
//
// Thread safety: the tables are built under std::call_once and immutable
// afterwards; that build is the only synchronization. The accessors are
// pure reads of the tables, so any number of threads may query one cache.
//
// Degradation: a substrate computation that throws does not abort the run.
// The accessor returns an empty DaySet, the engine's "this day is
// unavailable" signal (see core/engine.hpp).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bgp/fleet.hpp"
#include "drop/drop_list.hpp"
#include "irr/database.hpp"
#include "net/date.hpp"
#include "net/interval_set.hpp"
#include "obs/metrics.hpp"
#include "rir/registry.hpp"
#include "rpki/archive.hpp"

namespace droplens::core {

class SnapshotCache {
 public:
  /// One day's set, or empty when its computation threw.
  using DaySet = std::optional<net::IntervalSet>;

  /// Throws InvariantError when `irr` is null: irr_space() reads it.
  SnapshotCache(const rir::Registry& registry, const bgp::CollectorFleet& fleet,
                const rpki::RoaArchive& roas, const drop::DropList& drop,
                const irr::Database* irr);
  ~SnapshotCache();

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Address space covered by BGP announcements on `d`.
  DaySet routed_space(net::Date d) const;

  /// Space allocated by all RIRs as of `d`.
  DaySet allocated_space(net::Date d) const;

  /// Space covered by live ROAs on `d` under `tals`, per AS0 filter.
  DaySet signed_space(net::Date d, rpki::TalSet tals,
                      rpki::RoaArchive::Filter filter =
                          rpki::RoaArchive::Filter::kAll) const;

  /// `rir`'s administered-but-unallocated space on `d` (Fig 7 pools).
  DaySet free_pool(rir::Rir rir, net::Date d) const;

  /// Space actively DROP-listed on `d`.
  DaySet drop_space(net::Date d) const;

  /// Space covered by route objects live in the IRR on `d`.
  DaySet irr_space(net::Date d) const;

  /// One prefix announced on a day, with the worst RFC 6811 validity over
  /// its origins that day (invalid, then valid, then not-found).
  struct RouteValidity {
    net::Prefix prefix;
    rpki::Validity validity;
  };

  /// Every prefix announced on `d`, in prefix order, validated against the
  /// ROAs live on `d` under `tals`: the fold of RoaArchive::validate_route
  /// over CollectorFleet::origins_on, from one merge sweep of the day's
  /// routes against the day's ROAs. The ROAs covering a route form a stack
  /// of nested prefixes, at most 33 deep. An empty `tals` makes every route
  /// kNotFound. Not counted as a computed set.
  std::vector<RouteValidity> route_validity(net::Date d,
                                            rpki::TalSet tals) const;

 private:
  /// The lifetime tables (defined in the .cpp), built on first use.
  struct Tables;
  const Tables& tables() const;

  const rir::Registry& registry_;
  const bgp::CollectorFleet& fleet_;
  const rpki::RoaArchive& roas_;
  const drop::DropList& drop_;
  const irr::Database* irr_;  // never null
  mutable std::once_flag tables_once_;
  mutable std::unique_ptr<const Tables> tables_;
  obs::Counter computed_sets_;  // droplens_cache_misses_total
};

}  // namespace droplens::core
