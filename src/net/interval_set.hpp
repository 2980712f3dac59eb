// Disjoint half-open interval set over the IPv4 address space.
//
// The paper repeatedly accounts address space in "/8 equivalents" (Fig 1,
// Fig 5, Fig 7): unions of prefixes with overlap collapsed. IntervalSet is
// that accounting primitive. Bounds are uint64 so the end of 255/8 (2^32)
// is representable.
//
// A set either owns its interval array (the default: every mutation path)
// or is a non-owning view over externally owned storage — the zero-copy
// form the snapshot loader builds over mmapped segment arrays. Views answer
// every query identically; a mutating call first detaches into an owned
// copy, so the external storage is never written.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/eytzinger.hpp"
#include "net/prefix.hpp"

namespace droplens::net {

class IntervalSet {
 public:
  struct Interval {
    uint64_t begin;
    uint64_t end;  // half-open

    uint64_t size() const { return end - begin; }
    friend auto operator<=>(const Interval&, const Interval&) = default;
  };

  IntervalSet() = default;

  /// Non-owning view over an already-canonical interval array (see
  /// is_canonical). The storage must outlive the view and every copy of it.
  /// Canonicality is asserted in debug builds only — loaders of untrusted
  /// bytes must call is_canonical() themselves and reject violations.
  static IntervalSet view(std::span<const Interval> intervals);

  /// True when `intervals` satisfies the class invariant: sorted by begin,
  /// non-empty, non-overlapping, non-adjacent, ends within the IPv4 space
  /// bound 2^32.
  static bool is_canonical(std::span<const Interval> intervals);

  /// Build a set from intervals already sorted by begin (overlap and
  /// adjacency allowed — one coalescing sweep canonicalizes). O(n), versus
  /// the O(n²) of n insert() calls; the streaming compactor unions hundreds
  /// of thousands of prefixes per snapshot through this. Empty intervals
  /// are skipped; precondition (sortedness) is asserted in debug builds.
  static IntervalSet from_sorted(std::span<const Interval> intervals);

  bool is_view() const { return ext_data_ != nullptr; }

  /// Insert; overlapping/adjacent intervals coalesce. Empty ranges ignored.
  void insert(uint64_t begin, uint64_t end);
  void insert(const Prefix& p) { insert(p.first(), p.end()); }

  /// Remove [begin, end) from the set.
  void erase(uint64_t begin, uint64_t end);
  void erase(const Prefix& p) { erase(p.first(), p.end()); }

  bool contains(Ipv4 addr) const;

  /// True if every address of `p` is in the set.
  bool covers(const Prefix& p) const;

  /// True if any address of `p` is in the set.
  bool intersects(const Prefix& p) const;

  /// Build the Eytzinger acceleration index (net/eytzinger.hpp) over the
  /// current interval array. A permutation overlay only: intervals() and
  /// everything serialized from it are unchanged. view() and from_sorted()
  /// build it automatically; sets grown by insert()/erase() call this once
  /// after the last mutation (any mutation discards the index). Idempotent.
  void build_index();
  bool has_fast_index() const { return eytz_.built(); }

  // Reference twins: the plain std::upper_bound/lower_bound searches,
  // bypassing the index. The differential tests cross-check every indexed
  // and batched answer against these.
  bool contains_reference(Ipv4 addr) const;
  bool covers_reference(const Prefix& p) const;
  bool intersects_reference(const Prefix& p) const;

  /// Batched queries: out[i] = contains/intersects of the i-th input
  /// (0/1). With the index built, a stripe of queries descends in lockstep
  /// with software prefetch (see eytzinger.hpp); without it, this is the
  /// reference loop. `out` must have the input's length.
  void contains_batch(std::span<const uint64_t> addrs, uint8_t* out) const;
  void intersects_batch(std::span<const Prefix> prefixes, uint8_t* out) const;

  /// Total number of addresses.
  uint64_t size() const;

  /// size() / 2^24 — the paper's "/8 equivalents" unit.
  double slash8_equivalents() const {
    return static_cast<double>(size()) /
           static_cast<double>(uint64_t{1} << 24);
  }

  bool empty() const { return intervals().empty(); }
  size_t interval_count() const { return intervals().size(); }
  std::span<const Interval> intervals() const {
    return ext_data_ ? std::span<const Interval>(ext_data_, ext_size_)
                     : std::span<const Interval>(intervals_);
  }

  /// Set algebra; results are canonical (disjoint, sorted, coalesced). Each
  /// is one linear merge of the two interval arrays.
  static IntervalSet set_union(const IntervalSet& a, const IntervalSet& b);
  static IntervalSet set_intersection(const IntervalSet& a,
                                      const IntervalSet& b);
  static IntervalSet set_difference(const IntervalSet& a,
                                    const IntervalSet& b);

  /// Content equality; an owned set and a view over the same intervals
  /// compare equal.
  friend bool operator==(const IntervalSet& a, const IntervalSet& b);

 private:
  /// Copy a view's external storage into intervals_ before mutating.
  void detach();
  /// Append to an owned array being built in begin order, coalescing with
  /// the last interval on overlap or adjacency; empty intervals are skipped.
  void append_sorted(const Interval& iv);

  // Invariant: sorted by begin, non-empty, non-overlapping, non-adjacent.
  std::vector<Interval> intervals_;
  // View mode: when set, intervals_ is empty and queries read this array.
  const Interval* ext_data_ = nullptr;
  size_t ext_size_ = 0;
  // Optional acceleration overlay; ranks index into intervals(). Mutations
  // clear it, copies carry it (ranks stay valid for equal content).
  EytzingerIndex eytz_;
};

}  // namespace droplens::net
