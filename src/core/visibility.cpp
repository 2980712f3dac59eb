#include "core/visibility.hpp"

#include <algorithm>

#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"

namespace droplens::core {

namespace {

// Per-entry facts for Fig 2 left, computed independently per DROP entry so
// the probe loops (up to 38 announced_on() calls each) can fan out across
// the pool. Aggregated sequentially in entry order.
struct WithdrawalProbe {
  bool routed_before = false;
  int withdrawn_offset = -2;  // sentinel: never withdrew in the window
};

// Per-entry facts for Fig 2 right: visibility fraction plus each stats-row
// peer's observation bit, or `measured == false` if the prefix wasn't
// announced at probe time.
struct PeerProbe {
  bool measured = false;
  double visibility_fraction = 0;
  std::vector<uint8_t> peer_observes;
};

// Per-entry facts for the §4.1 deallocation checks.
struct DeallocProbe {
  bool allocated_at_listing = false;
  bool deallocated = false;
  bool removed_within_week = false;
};

}  // namespace

VisibilityResult analyze_visibility(const Study& study,
                                    const DropIndex& index) {
  obs::Span span("core.visibility");
  VisibilityResult r;
  const std::vector<const DropEntry*> entries = index.non_incident();

  // --- Fig 2 left: withdrawal relative to listing ------------------------
  // A prefix enters the population if it was BGP-observed the day before
  // listing; it counts as withdrawn at offset k if no announcement covers
  // listing + k.
  std::vector<WithdrawalProbe> probes(entries.size());
  engine::parallel_for(study, entries.size(), [&](size_t i) {
    const DropEntry* e = entries[i];
    WithdrawalProbe& p = probes[i];
    for (int k = 1; k <= 7 && !p.routed_before; ++k) {
      p.routed_before = study.fleet.announced_on(e->prefix, e->listed - k);
    }
    if (!p.routed_before) return;
    for (int k = -1; k <= 30; ++k) {
      if (!study.fleet.announced_on(e->prefix, e->listed + k)) {
        p.withdrawn_offset = k;
        break;
      }
    }
  });
  std::array<int, 32> withdrawn_at{};  // offsets -1..30 -> index 0..31
  for (size_t i = 0; i < entries.size(); ++i) {
    const DropEntry* e = entries[i];
    const WithdrawalProbe& p = probes[i];
    if (!p.routed_before) continue;
    ++r.routed_at_listing;
    for (drop::Category c : drop::kAllCategories) {
      if (e->is(c)) ++r.routed_by_category[static_cast<size_t>(c)];
    }
    if (p.withdrawn_offset >= -1) {
      ++withdrawn_at[static_cast<size_t>(p.withdrawn_offset + 1)];
      ++r.withdrawn_within_30d;
      for (drop::Category c : drop::kAllCategories) {
        if (e->is(c)) ++r.withdrawn_30d_by_category[static_cast<size_t>(c)];
      }
    }
  }
  int cumulative = 0;
  for (int k = -1; k <= 30; ++k) {
    cumulative += withdrawn_at[static_cast<size_t>(k + 1)];
    r.withdrawal_cdf.push_back(WithdrawalCdfPoint{
        k, r.routed_at_listing
               ? static_cast<double>(cumulative) / r.routed_at_listing
               : 0.0});
  }

  // --- Fig 2 right: fraction of peers observing each DROP prefix ---------
  size_t full_table = study.fleet.full_table_peer_count();
  std::vector<PeerFilterStat> stats;
  for (const bgp::Peer& p : study.fleet.peers()) {
    if (p.full_table) stats.push_back(PeerFilterStat{p.id, 0, 0, false});
  }
  std::vector<PeerProbe> peer_probes(entries.size());
  engine::parallel_for(study, entries.size(), [&](size_t i) {
    const DropEntry* e = entries[i];
    PeerProbe& p = peer_probes[i];
    net::Date probe = e->listed + 2;
    if (!study.fleet.announced_on(e->prefix, probe)) return;
    p.measured = true;
    size_t observing = study.fleet.observing_peers(e->prefix, probe);
    p.visibility_fraction =
        static_cast<double>(observing) / static_cast<double>(full_table);
    p.peer_observes.resize(stats.size());
    for (size_t s = 0; s < stats.size(); ++s) {
      p.peer_observes[s] =
          study.fleet.peer_observes(stats[s].peer, e->prefix, probe) ? 1 : 0;
    }
  });
  for (const PeerProbe& p : peer_probes) {
    if (!p.measured) continue;
    r.peer_visibility_fractions.push_back(p.visibility_fraction);
    for (size_t s = 0; s < stats.size(); ++s) {
      if (p.peer_observes[s]) {
        ++stats[s].drop_prefixes_carried;
      } else {
        ++stats[s].drop_prefixes_missing;
      }
    }
  }
  std::sort(r.peer_visibility_fractions.begin(),
            r.peer_visibility_fractions.end());
  for (PeerFilterStat& s : stats) {
    size_t total = s.drop_prefixes_carried + s.drop_prefixes_missing;
    s.appears_to_filter =
        total >= 10 && s.drop_prefixes_missing * 2 > total;
    if (s.appears_to_filter) ++r.filtering_peers;
  }
  r.peer_stats = std::move(stats);

  // --- §4.1: RIR deallocation after listing -------------------------------
  std::vector<DeallocProbe> dealloc(entries.size());
  engine::parallel_for(study, entries.size(), [&](size_t i) {
    const DropEntry* e = entries[i];
    DeallocProbe& p = dealloc[i];
    p.allocated_at_listing = study.registry.is_allocated(e->prefix, e->listed);
    bool allocated_at_end =
        study.registry.is_allocated(e->prefix, study.window_end);
    p.deallocated = p.allocated_at_listing && !allocated_at_end;
    if (e->removed && p.deallocated) {
      // When did the deallocation happen relative to the DROP removal?
      for (const rir::Allocation& a : study.registry.history(e->prefix)) {
        if (a.lifetime.end == net::DateRange::unbounded()) continue;
        net::Date dealloc_day = a.lifetime.end;
        if (dealloc_day <= e->removed_on && e->removed_on - dealloc_day <= 7) {
          p.removed_within_week = true;
          break;
        }
      }
    }
  });
  for (size_t i = 0; i < entries.size(); ++i) {
    const DropEntry* e = entries[i];
    const DeallocProbe& p = dealloc[i];
    if (e->is(drop::Category::kMaliciousHosting)) {
      if (p.allocated_at_listing) ++r.mh_allocated_at_listing;
      if (p.deallocated) ++r.mh_deallocated;
    }
    if (e->removed) {
      ++r.removed_prefixes;
      if (p.deallocated) {
        ++r.removed_deallocated;
        if (p.removed_within_week) ++r.removed_within_week_of_dealloc;
      }
    }
  }
  return r;
}

}  // namespace droplens::core
