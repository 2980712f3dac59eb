// Time-indexed Internet number resource registry.
//
// Mirrors what the daily "RIR stats" archives let the paper reconstruct
// (§3): which RIR administers an address block, whether it was allocated on
// a given date, to whom, when it was deallocated, and how much unallocated
// space remains in each RIR's free pool (Fig 7).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/date.hpp"
#include "net/interval_set.hpp"
#include "net/prefix_trie.hpp"
#include "rir/delegation.hpp"
#include "rir/rir.hpp"

namespace droplens::rir {

/// One allocation episode of a prefix to a resource holder.
struct Allocation {
  net::Prefix prefix;
  Rir rir = Rir::kArin;
  std::string holder;   // organization name ("Amazon", ...) — §6.2.1 uses it
  std::string country;  // ISO 3166
  net::DateRange lifetime;  // [allocated, deallocated); unbounded if live

  bool live_on(net::Date d) const { return lifetime.contains(d); }
};

class Registry {
 public:
  Registry() = default;

  /// Declare that `rir` administers `block` (e.g. IANA gave 41/8 to
  /// AFRINIC). Administered blocks of different RIRs must not overlap.
  void administer(Rir rir, const net::Prefix& block);

  const net::IntervalSet& administered(Rir rir) const;

  /// The RIR whose administered space contains `p` entirely, if any.
  std::optional<Rir> rir_of(const net::Prefix& p) const;

  /// Allocate `prefix` to `holder` on `date`. Throws InvariantError if the
  /// prefix is outside administered space of `rir` or overlaps a live
  /// allocation.
  void allocate(const net::Prefix& prefix, Rir rir, std::string holder,
                net::Date date, std::string country = "ZZ");

  /// End the live allocation of exactly `prefix` on `date`. Throws
  /// InvariantError if there is none.
  void deallocate(const net::Prefix& prefix, net::Date date);

  /// Most specific live allocation containing `p` on `d`; nullptr if `p`
  /// is (even partially) unallocated.
  const Allocation* allocation_on(const net::Prefix& p, net::Date d) const;

  bool is_allocated(const net::Prefix& p, net::Date d) const {
    return allocation_on(p, d) != nullptr;
  }

  /// True if no live allocation covers any part of `p` — the paper's
  /// "unallocated" category (UA).
  bool is_fully_unallocated(const net::Prefix& p, net::Date d) const;

  /// All allocation episodes (live or ended) for prefixes equal to or more
  /// specific than `p`.
  std::vector<Allocation> history(const net::Prefix& p) const;

  /// Visit every allocation episode (live or ended) in prefix order — one
  /// walk of the trie.
  template <typename Fn>
  void for_each_allocation(Fn&& fn) const {
    allocations_.for_each(
        [&](const net::Prefix&, const std::vector<Allocation>& v) {
          for (const Allocation& a : v) fn(a);
        });
  }

  /// Space allocated by `rir` as of `d`.
  net::IntervalSet allocated_space(Rir rir, net::Date d) const;
  /// Space allocated by all RIRs as of `d`.
  net::IntervalSet allocated_space(net::Date d) const;

  /// Administered-but-unallocated space: the RIR's free pool on `d` (Fig 7).
  net::IntervalSet free_pool(Rir rir, net::Date d) const;

  /// Live allocations on `d`, optionally restricted to one RIR.
  std::vector<Allocation> live_allocations(net::Date d) const;
  std::vector<Allocation> live_allocations(Rir rir, net::Date d) const;

  /// Daily RIR-stats snapshot for `rir` at `d`: allocated records for live
  /// allocations plus `available` records covering the free pool.
  std::vector<DelegationRecord> snapshot(Rir rir, net::Date d) const;

 private:
  net::IntervalSet administered_[kAllRirs.size()];
  net::PrefixMap<std::vector<Allocation>> allocations_;
};

}  // namespace droplens::rir
