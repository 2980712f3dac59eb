#include "core/roa_status.hpp"

#include <algorithm>
#include <map>

#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"

namespace droplens::core {

namespace {

RoaStatusSample sample_day(const Study& study, net::Date d) {
  using net::IntervalSet;
  RoaStatusSample s;
  s.date = d;
  engine::DaySet signed_all =
      engine::signed_space(study, d, rpki::TalSet::defaults());
  engine::DaySet signed_nonas0 = engine::signed_space(
      study, d, rpki::TalSet::defaults(), rpki::RoaArchive::Filter::kNonAs0Only);
  engine::DaySet routed = engine::routed_space(study, d);
  engine::DaySet allocated = engine::allocated_space(study, d);
  if (!signed_all || !signed_nonas0 || !routed || !allocated) {
    s.degraded = true;  // a substrate could not serve this day: skip-and-count
    return s;
  }

  IntervalSet signed_routed =
      IntervalSet::set_intersection(*signed_all, *routed);
  IntervalSet signed_unrouted_nonas0 =
      IntervalSet::set_difference(*signed_nonas0, *routed);
  IntervalSet unrouted_no_roa = IntervalSet::set_difference(
      IntervalSet::set_difference(*allocated, *routed), *signed_all);

  s.signed_slash8 = signed_all->slash8_equivalents();
  s.signed_routed_slash8 = signed_routed.slash8_equivalents();
  s.signed_unrouted_nonas0_slash8 =
      signed_unrouted_nonas0.slash8_equivalents();
  s.alloc_unrouted_no_roa_slash8 = unrouted_no_roa.slash8_equivalents();
  return s;
}

}  // namespace

RoaStatusResult analyze_roa_status(const Study& study) {
  obs::Span span("core.roa_status");
  RoaStatusResult r;
  const std::vector<net::Date> dates = engine::sample_dates(study);
  r.series.resize(dates.size());
  engine::parallel_for(study, dates.size(), [&](size_t i) {
    r.series[i] = sample_day(study, dates[i]);
  });
  for (const RoaStatusSample& s : r.series) {
    if (s.degraded) ++r.degraded_samples;
  }

  // Who holds the signed-but-unrouted space at the end of the window? When
  // the window's final day is itself degraded, fall back to the latest
  // sample date whose substrates all loaded; with none, the end-of-window
  // facts stay at their zero defaults.
  std::optional<net::Date> end_opt = engine::last_available_date(
      study, {Feed::kRoas, Feed::kBgpUpdates, Feed::kDelegations});
  if (!end_opt) return r;
  net::Date end = *end_opt;
  engine::DaySet signed_nonas0 = engine::signed_space(
      study, end, rpki::TalSet::defaults(),
      rpki::RoaArchive::Filter::kNonAs0Only);
  net::IntervalSet unrouted_signed = net::IntervalSet::set_difference(
      *signed_nonas0, *engine::routed_space(study, end));
  std::map<std::string, uint64_t> by_holder;
  for (const rir::Allocation& a : study.registry.live_allocations(end)) {
    if (!unrouted_signed.intersects(a.prefix)) continue;
    net::IntervalSet piece;
    piece.insert(a.prefix);
    by_holder[a.holder] += net::IntervalSet::set_intersection(
        piece, unrouted_signed).size();
  }
  std::vector<HolderSpace> holders;
  for (const auto& [holder, size] : by_holder) {
    holders.push_back(HolderSpace{
        holder, static_cast<double>(size) / (uint64_t{1} << 24)});
  }
  std::sort(holders.begin(), holders.end(),
            [](const HolderSpace& a, const HolderSpace& b) {
              return a.slash8 > b.slash8;
            });
  double top3 = 0;
  for (size_t i = 0; i < holders.size() && i < 3; ++i) top3 += holders[i].slash8;
  double total_unrouted_signed = unrouted_signed.slash8_equivalents();
  r.top3_share = total_unrouted_signed > 0 ? top3 / total_unrouted_signed : 0;
  if (holders.size() > 8) holders.resize(8);
  r.top_signed_unrouted_holders = std::move(holders);

  // ARIN's share of the allocated-unrouted-unsigned space.
  engine::DaySet signed_all =
      engine::signed_space(study, end, rpki::TalSet::defaults());
  net::IntervalSet unrouted_no_roa = net::IntervalSet::set_difference(
      net::IntervalSet::set_difference(*engine::allocated_space(study, end),
                                       *engine::routed_space(study, end)),
      *signed_all);
  net::IntervalSet arin_part = net::IntervalSet::set_intersection(
      unrouted_no_roa, study.registry.administered(rir::Rir::kArin));
  r.arin_share_of_unrouted_unsigned =
      unrouted_no_roa.size() > 0
          ? static_cast<double>(arin_part.size()) / unrouted_no_roa.size()
          : 0;
  return r;
}

}  // namespace droplens::core
