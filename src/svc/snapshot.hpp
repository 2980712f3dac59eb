// The query service's snapshot artifact.
//
// A Snapshot is the engine's answer to one date, compiled once into flat,
// immutable lookup structures and then shared read-only by every server
// thread: IntervalSets (already a sorted vector of disjoint ranges) for the
// boolean space fields, SegmentMaps for the valued ones (DROP categories,
// ROV status, administering RIR). Lookups are a handful of binary searches,
// no locks, no allocation.
//
// Semantics: valued fields answer at the query prefix's network address
// (the longest-match point, since paints go least-specific-first); boolean
// space fields answer "does the query prefix overlap this space". A day
// whose ingestion ledger marked feeds unavailable still compiles — the
// affected structures are empty and the feed's bit is set in `degraded`, so
// every response says how much to trust it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "core/data_quality.hpp"
#include "core/drop_index.hpp"
#include "core/study.hpp"
#include "net/interval_set.hpp"
#include "net/prefix.hpp"
#include "net/segment_map.hpp"
#include "rir/rir.hpp"

namespace droplens::svc {

/// The queryable fields, as bit positions of the request field mask.
enum class Field : uint8_t {
  kDrop = 0,            // DROP membership + category labels + incident flag
  kClassification = 1,  // primary classification bucket (drop::Category)
  kRov = 2,             // RFC 6811 status of the announced route(s)
  kAs0 = 3,             // covered by an AS0 ROA (any TAL)
  kIrr = 4,             // covered by a live IRR route object
  kRir = 5,             // delegation status + administering RIR
  kRouted = 6,          // overlaps BGP-announced space
};
inline constexpr uint8_t kFieldCount = 7;

constexpr uint8_t field_bit(Field f) {
  return static_cast<uint8_t>(uint8_t{1} << static_cast<uint8_t>(f));
}
inline constexpr uint8_t kAllFields = 0x7f;

/// Aggregate RFC 6811 status of a prefix's announcements on the snapshot
/// date. Invalid dominates (any invalid origin is worth surfacing), then
/// valid, then not-found; unrouted means no covering announcement at all.
enum class RovStatus : uint8_t {
  kValid = 0,
  kInvalid = 1,
  kNotFound = 2,
  kUnrouted = 3,
};

enum class RirStatus : uint8_t {
  kAllocated = 0,       // inside a live allocation
  kFreePool = 1,        // administered by an RIR, not allocated
  kUnadministered = 2,  // outside every RIR's administered space
};

/// No-category / no-RIR sentinel for the uint8 wire slots.
inline constexpr uint8_t kNoValue = 0xff;

/// One prefix's answer. Mirrors the wire record byte for byte (see
/// svc/protocol.hpp); fields outside the requested mask are left zeroed.
struct Answer {
  uint8_t status = 0;       // protocol QueryStatus (kOk / kUnavailable)
  uint8_t fields = 0;       // mask of fields actually answered
  bool drop_listed = false;
  bool incident = false;
  bool as0_covered = false;
  bool irr_registered = false;
  bool routed = false;
  uint8_t categories = 0;       // drop::CategorySet bits
  uint8_t bucket = kNoValue;    // primary drop::Category, kNoValue if none
  RovStatus rov = RovStatus::kUnrouted;
  RirStatus rir_status = RirStatus::kUnadministered;
  uint8_t rir = kNoValue;       // rir::Rir index, kNoValue if unadministered

  friend bool operator==(const Answer&, const Answer&) = default;
};

class Snapshot {
 public:
  /// Labels of the space covered by DROP listings.
  struct DropInfo {
    uint8_t categories = 0;  // drop::CategorySet bits (OR over listings)
    // 0/1. uint8_t rather than bool so a view over mmapped bytes can never
    // hold a trap value (reading a bool whose byte is not 0/1 is UB); the
    // loader rejects files with other values.
    uint8_t incident = 0;

    /// Label union of overlapping listings, as a SegmentMap::merge
    /// function: categories and incident OR together, so the paint is
    /// order-independent.
    static DropInfo merge(const std::optional<DropInfo>& existing,
                          const DropInfo& v) {
      if (!existing) return v;
      return DropInfo{static_cast<uint8_t>(existing->categories | v.categories),
                      static_cast<uint8_t>(existing->incident | v.incident)};
    }

    friend bool operator==(const DropInfo&, const DropInfo&) = default;
  };

  Snapshot() = default;

  /// Assemble a snapshot directly from its parts — the path the mmap loader
  /// (svc/snapshot_io.hpp) and tests use. Structures may be owned or views;
  /// SegmentMaps must already be finalized.
  Snapshot(uint64_t version, net::Date date, uint8_t degraded,
           net::IntervalSet routed, net::IntervalSet as0, net::IntervalSet irr,
           net::IntervalSet allocated, net::SegmentMap<DropInfo> drop,
           net::SegmentMap<uint8_t> rov, net::SegmentMap<uint8_t> rir)
      : version_(version),
        date_(date),
        degraded_(degraded),
        routed_(std::move(routed)),
        as0_(std::move(as0)),
        irr_(std::move(irr)),
        allocated_(std::move(allocated)),
        drop_(std::move(drop)),
        rov_(std::move(rov)),
        rir_(std::move(rir)) {
    build_indexes();
  }

  uint64_t version() const { return version_; }
  net::Date date() const { return date_; }
  /// Per-feed degradation bits: bit i set = core::Feed i was unavailable on
  /// this date, and the structures derived from it are empty.
  uint8_t degraded() const { return degraded_; }

  /// Answer `fields` for `p`. Never throws; lock-free and allocation-free.
  Answer lookup(const net::Prefix& p, uint8_t fields) const;

  /// Answer a batch: out[i] = lookup(prefixes[i], fields[i]), assembled
  /// from the substrates' batched (prefetching, branch-free) searches —
  /// byte-identical to per-query lookup() by construction: both paths share
  /// one assembly template and differ only in how the substrate answers are
  /// produced. All three spans must have equal length. Allocation-free.
  void lookup_batch(std::span<const net::Prefix> prefixes,
                    std::span<const uint8_t> fields,
                    std::span<Answer> out) const;

  /// lookup() forced through the substrates' plain std::upper_bound
  /// searches, bypassing every Eytzinger index — the oracle the
  /// differential scale tier cross-checks the fast paths against.
  Answer lookup_reference(const net::Prefix& p, uint8_t fields) const;

  /// Build the substrates' acceleration indexes (idempotent, cheap when
  /// already built). Every construction path calls this; it exists
  /// publicly for tests that assemble snapshots by hand.
  void build_indexes() {
    routed_.build_index();
    as0_.build_index();
    irr_.build_index();
    allocated_.build_index();
    drop_.build_index();
    rov_.build_index();
    rir_.build_index();
  }

  // Read access to the compiled structures, in on-disk segment order — the
  // spans the snapshot writer serializes (see svc/snapshot_io.hpp).
  const net::IntervalSet& routed() const { return routed_; }
  const net::IntervalSet& as0() const { return as0_; }
  const net::IntervalSet& irr() const { return irr_; }
  const net::IntervalSet& allocated() const { return allocated_; }
  const net::SegmentMap<DropInfo>& drop() const { return drop_; }
  const net::SegmentMap<uint8_t>& rov() const { return rov_; }
  const net::SegmentMap<uint8_t>& rir() const { return rir_; }

 private:
  friend std::shared_ptr<const Snapshot> compile_snapshot(
      const core::Study& study, const core::DropIndex& index, net::Date d,
      uint64_t version);

  uint64_t version_ = 0;
  net::Date date_;
  uint8_t degraded_ = 0;

  net::IntervalSet routed_;
  net::IntervalSet as0_;
  net::IntervalSet irr_;
  net::IntervalSet allocated_;
  net::SegmentMap<Snapshot::DropInfo> drop_;
  net::SegmentMap<uint8_t> rov_;  // RovStatus of announced space
  net::SegmentMap<uint8_t> rir_;  // administering rir::Rir index
};

/// Compile the study's state for day `d` into a Snapshot. The Study must
/// carry a SnapshotCache (InvariantError otherwise): the routed, allocated,
/// AS0 and IRR sets come from its lifetime-table scans and the ROV status
/// from its route_validity() sweep, with no pool task. The Study's
/// DataQuality ledger, when set, degrades the days it marks. The result is
/// deterministic: byte-identical for any thread count, and to the trie
/// compile the differential tests keep as the oracle.
std::shared_ptr<const Snapshot> compile_snapshot(const core::Study& study,
                                                 const core::DropIndex& index,
                                                 net::Date d, uint64_t version);

/// The administering-RIR map: every RIR's static administered blocks,
/// painted with its rir::Rir index (the blocks are disjoint across RIRs).
/// Compiled days and the live stream::Applier share this one paint.
net::SegmentMap<uint8_t> administering_rirs(const rir::Registry& registry);

}  // namespace droplens::svc
