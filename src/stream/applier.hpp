// Incremental state machine from events to query-service snapshots.
//
// The batch pipeline compiles a day by scanning every substrate end to end
// (svc::compile_snapshot). The Applier maintains the same state *live*: each
// event mutates small keyed stores (active routes, live ROAs, DROP listings,
// IRR objects, allocations), and compact() folds them into a flat
// svc::Snapshot — byte-identical to what compile_snapshot would build for
// the same day, which tests/test_stream.cpp pins structure by structure.
//
// Why byte-identical works:
//  - The boolean space fields are unions of prefixes; IntervalSet is
//    canonical, so content equality is insertion-order-independent.
//  - The DROP map ORs category bits per point — order-independent — with
//    the batch compile's own merge (svc::Snapshot::DropInfo::merge), and
//    SegmentMap::finalize produces the canonical maximally-coalesced form
//    of whatever point-function was painted.
//  - The ROV paint goes least-specific-first, like the tests' trie oracle
//    (tests/trie_oracle.hpp); equal-length distinct prefixes are disjoint,
//    so any order within a length class paints the same point-function.
//    Per-prefix status is a worst-of fold (invalid > valid > not-found)
//    over active origins — also order-independent.
//  - The RIR paint is static (administered blocks), seeded once by the
//    batch compile's own function (svc::administering_rirs).
//
// ROV is recomputed incrementally: a BGP event refreshes its own prefix; a
// ROA event refreshes every announced prefix the ROA covers (an ordered-map
// range scan — contained keys are exactly [lower_bound(p), first() <
// p.end()), the nested-block property of CIDR).
//
// Threading: the Applier is single-writer, externally synchronized (the
// Publisher owns one and serializes apply/compact). compact() returns an
// immutable shared snapshot; readers never touch the live stores.
//
// Flat-diff event types (kRovSet family, see stream/event.hpp) assert
// derived state the Applier computes itself — apply() rejects them.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/interval_set.hpp"
#include "net/prefix_trie.hpp"
#include "net/segment_map.hpp"
#include "stream/event.hpp"
#include "svc/snapshot.hpp"

namespace droplens::rir {
class Registry;
}  // namespace droplens::rir

namespace droplens::stream {

class Applier {
 public:
  Applier() = default;

  /// Paint the administering-RIR map from the registry's static administered
  /// blocks. Call once before the first compact(); delegation *allocations*
  /// flow through events, the administered carve-up does not change.
  void seed_rir(const rir::Registry& registry);

  /// Apply one event to the live state. Returns false for events that do
  /// not apply: flat-diff assertion types, and removals with no matching
  /// live entry (a hostile or replayed-out-of-order stream must not corrupt
  /// state). BGP and ROA events refresh the affected ROV statuses.
  bool apply(const Event& e);

  /// Fold the live state into an immutable snapshot for day `d` —
  /// byte-identical to svc::compile_snapshot(study, index, d, version) once
  /// every event up to and including day `d` has been applied.
  std::shared_ptr<const svc::Snapshot> compact(net::Date d,
                                               uint64_t version) const;

  uint64_t applied() const { return applied_; }
  uint64_t rejected() const { return rejected_; }
  size_t announced_prefixes() const { return routes_.size(); }

 private:
  struct ActiveRoute {
    net::Date begin;
    uint32_t origin;
  };
  struct LiveRoute {
    std::vector<ActiveRoute> entries;
    uint8_t rov = 0;  // svc::RovStatus of this prefix's active origins
  };
  struct RoaEntry {
    uint32_t asn;
    uint8_t max_length;
    uint8_t tal;  // rpki::Tal index
  };
  struct DropListing {
    uint8_t categories;
    uint8_t incident;
  };

  /// Recompute the ROV status of `route` (keyed by `p`) against the live
  /// ROA set — the exact RFC 6811 worst-of fold compile_snapshot runs.
  void refresh_rov(const net::Prefix& p, LiveRoute& route) const;
  /// Refresh every announced prefix contained in `p` (ROA added/removed).
  void refresh_covered(const net::Prefix& p);

  uint64_t applied_ = 0;
  uint64_t rejected_ = 0;

  /// Announced prefixes with their active episodes and cached ROV status.
  std::map<net::Prefix, LiveRoute> routes_;
  /// Live ROAs keyed by ROA prefix — covering walks drive validation.
  net::PrefixMap<std::vector<RoaEntry>> roas_;
  /// Live DROP listings per prefix (overlaps keep their own label bits).
  std::map<net::Prefix, std::vector<DropListing>> drop_;
  /// Live IRR route-object count per prefix (origin is irrelevant to the
  /// covered-space answer, so a count suffices).
  std::map<net::Prefix, uint32_t> irr_;
  /// Live delegation count per prefix.
  std::map<net::Prefix, uint32_t> alloc_;
  /// Static administering-RIR paint (seed_rir), copied into every snapshot.
  net::SegmentMap<uint8_t> rir_;
};

}  // namespace droplens::stream
