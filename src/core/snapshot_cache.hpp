// Shared daily-snapshot cache for the analysis engine.
//
// Every longitudinal analysis intersects the same four interval sets per
// sampled date: routed space (BGP fleet), signed space (ROA archive, per
// TAL-set and AS0 filter), allocated space / free pools (registry), and the
// DROP active set. The cache memoizes one immutable IntervalSet per
// (substrate, date, variant) key behind a sharded mutex-guarded map, so N
// analyses and N threads share one computation per day.
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
// Thread safety: the tables are built under std::call_once and immutable
// afterwards. Memoized sets are get-or-compute under a per-shard mutex and
// returned as shared_ptr<const IntervalSet>; once published they are never
// mutated, so readers need no further synchronization. A racing miss on the
// same key computes at most once per shard lock — the value is pure, so
// whichever insert wins is byte-identical.
//
// Degradation: a substrate computation that throws does not abort the run —
// the failure is cached as a null snapshot (so the day computes-and-fails at
// most once) and counted in stats().failures. Callers receive nullptr, the
// engine's "this day is unavailable" signal (see core/engine.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
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
  using SetPtr = std::shared_ptr<const net::IntervalSet>;

  /// Throws InvariantError when `irr` is null: irr_space() reads it.
  SnapshotCache(const rir::Registry& registry, const bgp::CollectorFleet& fleet,
                const rpki::RoaArchive& roas, const drop::DropList& drop,
                const irr::Database* irr);
  ~SnapshotCache();

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Address space covered by BGP announcements on `d`.
  SetPtr routed_space(net::Date d) const;

  /// Space allocated by all RIRs as of `d`.
  SetPtr allocated_space(net::Date d) const;

  /// Space covered by live ROAs on `d` under `tals`, per AS0 filter.
  SetPtr signed_space(net::Date d, rpki::TalSet tals,
                      rpki::RoaArchive::Filter filter =
                          rpki::RoaArchive::Filter::kAll) const;

  /// `rir`'s administered-but-unallocated space on `d` (Fig 7 pools).
  SetPtr free_pool(rir::Rir rir, net::Date d) const;

  /// Space actively DROP-listed on `d`.
  SetPtr drop_space(net::Date d) const;

  /// Space covered by route objects live in the IRR on `d`.
  SetPtr irr_space(net::Date d) const;

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
  /// kNotFound. Not memoized.
  std::vector<RouteValidity> route_validity(net::Date d,
                                            rpki::TalSet tals) const;

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t failures = 0;      // computations that threw; cached as null days
    size_t failure_hits = 0;  // hits that returned a memoized failure (null)
  };
  /// Aggregate hit/miss counters across shards (diagnostics only; not part
  /// of the determinism contract). Building the lifetime tables is not a
  /// miss.
  Stats stats() const;

 private:
  enum class Substrate : uint8_t {
    kRouted,
    kAllocated,
    kSigned,
    kFreePool,
    kDrop,
    kIrr,
  };

  // (substrate, date, variant) packed into one key: date in the low 32 bits,
  // variant (TAL bitmask + filter, or RIR index) above it, substrate on top.
  static uint64_t make_key(Substrate s, net::Date d, uint32_t variant) {
    return (uint64_t{static_cast<uint8_t>(s)} << 56) |
           (uint64_t{variant} << 32) |
           static_cast<uint32_t>(d.days());
  }

  template <typename Compute>
  SetPtr get_or_compute(uint64_t key, Compute&& compute) const;

  /// The lifetime tables (defined in the .cpp), built on first use.
  struct Tables;
  const Tables& tables() const;

  static constexpr size_t kShardCount = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, SetPtr> map;
    size_t hits = 0;
    size_t misses = 0;
    size_t failures = 0;
    size_t failure_hits = 0;
    // Registry mirrors of the counters above, bound per shard at
    // construction (no-op handles when no registry is installed).
    obs::Counter hits_metric;
    obs::Counter misses_metric;
    obs::Counter failure_memo_metric;
  };

  const rir::Registry& registry_;
  const bgp::CollectorFleet& fleet_;
  const rpki::RoaArchive& roas_;
  const drop::DropList& drop_;
  const irr::Database* irr_;  // never null
  mutable std::once_flag tables_once_;
  mutable std::unique_ptr<const Tables> tables_;
  mutable std::array<Shard, kShardCount> shards_;
};

}  // namespace droplens::core
