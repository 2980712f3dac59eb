// RIR AS0 policy engine (§2.3.1, §6.2.2).
//
// APNIC (2020-09-02) and LACNIC (2021-06-23) publish AS0 ROAs covering the
// unallocated space in their free pools, under dedicated AS0 TALs. This
// engine keeps an RoaArchive's AS0-TAL ROAs synchronized with a Registry's
// free pool, so the Fig 6/7 analyses can ask "would this hijack have been
// rejected had the AS0 TAL been configured".
#pragma once

#include <optional>
#include <span>

#include "net/date.hpp"
#include "rir/registry.hpp"
#include "rpki/archive.hpp"

namespace droplens::rpki {

/// The date an RIR's AS0 policy went live, per the paper; nullopt for RIRs
/// with no implemented policy (ARIN, RIPE NCC, AFRINIC as of the study end).
std::optional<net::Date> as0_policy_date(rir::Rir rir);

class As0PolicyEngine {
 public:
  As0PolicyEngine(const rir::Registry& registry, RoaArchive& archive)
      : registry_(registry), archive_(archive) {}

  /// Bring the AS0-TAL ROAs of `rir` in line with its free pool on `d`:
  /// publish ROAs for newly free space, revoke ROAs for newly allocated
  /// space. No-op (returns 0) for RIRs without an AS0 TAL or before their
  /// policy date. Returns the number of publish+revoke operations.
  size_t sync(rir::Rir rir, net::Date d);

  /// Run sync for every RIR whose policy is active on `d`.
  size_t sync_all(net::Date d);

  /// sync_all on each of `dates` in turn (the generator passes its monthly
  /// schedule, ascending). The registry and the archive are walked once for
  /// the whole schedule rather than once per date; the result, op count
  /// included, equals the loop of sync_all calls.
  size_t sync_schedule(std::span<const net::Date> dates);

 private:
  size_t run(std::span<const rir::Rir> rirs, std::span<const net::Date> dates);

  const rir::Registry& registry_;
  RoaArchive& archive_;
};

}  // namespace droplens::rpki
