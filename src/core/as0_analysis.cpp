#include "core/as0_analysis.hpp"

#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "rpki/as0_policy.hpp"

namespace droplens::core {

As0Result analyze_as0(const Study& study, const DropIndex& index) {
  obs::Span span("core.as0_analysis");
  As0Result r;

  // --- Fig 6: unallocated prefixes appearing on DROP ---------------------
  for (const DropEntry* e : index.non_incident()) {
    if (!study.registry.is_fully_unallocated(e->prefix, e->listed)) continue;
    auto rir = study.registry.rir_of(e->prefix);
    if (!rir) continue;
    UnallocatedListing l;
    l.prefix = e->prefix;
    l.listed = e->listed;
    l.rir = *rir;
    auto policy = rpki::as0_policy_date(*rir);
    l.after_rir_as0_policy = policy && e->listed >= *policy;
    if (l.after_rir_as0_policy) ++r.listed_after_policy;
    ++r.unallocated_by_rir[static_cast<size_t>(*rir)];
    r.unallocated_listings.push_back(l);
  }

  // --- Fig 7: free pools over time ----------------------------------------
  rpki::TalSet as0_tals;
  as0_tals.add(rpki::Tal::kApnicAs0);
  as0_tals.add(rpki::Tal::kLacnicAs0);
  auto sample = [&](net::Date d) {
    FreePoolSample s;
    s.date = d;
    engine::DaySet as0_space = engine::signed_space(
        study, d, as0_tals, rpki::RoaArchive::Filter::kAs0Only);
    if (!as0_space) {
      s.degraded = true;
      return s;
    }
    for (rir::Rir rir : rir::kAllRirs) {
      engine::DaySet pool = engine::free_pool(study, rir, d);
      if (!pool) {
        s = FreePoolSample{};
        s.date = d;
        s.degraded = true;  // substrate missing this day: skip-and-count
        return s;
      }
      s.pool_slash8[static_cast<size_t>(rir)] = pool->slash8_equivalents();
      s.pool_as0_covered[static_cast<size_t>(rir)] =
          net::IntervalSet::set_intersection(*pool, *as0_space)
              .slash8_equivalents();
    }
    return s;
  };
  const std::vector<net::Date> dates = engine::sample_dates(study);
  r.pool_series.resize(dates.size());
  engine::parallel_for(study, dates.size(), [&](size_t i) {
    r.pool_series[i] = sample(dates[i]);
  });
  for (const FreePoolSample& s : r.pool_series) {
    if (s.degraded) ++r.degraded_samples;
  }

  // --- §6.2.2: would any peer have filtered with the AS0 TALs? -----------
  net::Date end = study.window_end;
  const std::vector<net::Prefix> announced =
      study.fleet.announced_prefixes_on(end);
  // An AS0-TAL ROA covering the prefix makes every announcement of it
  // invalid for a validator that has those TALs configured. Flag each
  // announced prefix in parallel, then keep prefix order for determinism.
  std::vector<uint8_t> rejectable_flag(announced.size(), 0);
  engine::parallel_for(study, announced.size(), [&](size_t i) {
    for (const rpki::Roa& roa : study.roas.covering(announced[i], end,
                                                    as0_tals)) {
      if (roa.is_as0()) {
        rejectable_flag[i] = 1;
        break;
      }
    }
  });
  std::vector<net::Prefix> rejectable;
  for (size_t i = 0; i < announced.size(); ++i) {
    if (rejectable_flag[i]) rejectable.push_back(announced[i]);
  }

  std::vector<const bgp::Peer*> full_table_peers;
  for (const bgp::Peer& peer : study.fleet.peers()) {
    if (peer.full_table) full_table_peers.push_back(&peer);
  }
  std::vector<size_t> carried_by_peer(full_table_peers.size(), 0);
  engine::parallel_for(study, full_table_peers.size(), [&](size_t i) {
    size_t carried = 0;
    for (const net::Prefix& p : rejectable) {
      if (study.fleet.peer_observes(full_table_peers[i]->id, p, end)) {
        ++carried;
      }
    }
    carried_by_peer[i] = carried;
  });
  size_t total = 0;
  for (size_t carried : carried_by_peer) {
    r.peer_as0_rejectable.push_back(carried);
    total += carried;
    if (carried == 0) ++r.peers_apparently_filtering_as0;
  }
  r.mean_as0_rejectable =
      r.peer_as0_rejectable.empty()
          ? 0
          : static_cast<double>(total) / r.peer_as0_rejectable.size();
  return r;
}

}  // namespace droplens::core
