// Engine facade used inside the analyses.
//
// Analyses call these helpers instead of hitting the substrates directly.
// Every per-day set comes from the Study's SnapshotCache, which a Study
// must carry before it reaches an analysis or svc::compile_snapshot:
// cache() raises the one InvariantError for a Study without one. The
// substrates' trie functions are the oracle the differential tests compare
// the cache against (tests/trie_oracle.hpp); no analysis falls back to them.
//
// Determinism contract: engine::parallel_for(study, n, fn) must only be
// used with an fn that writes its result to slot i of a pre-sized buffer
// (or an otherwise index-addressed location). Aggregation over the buffer
// then happens sequentially in index order, which makes the output
// byte-identical for every thread count.
#pragma once

#include <initializer_list>
#include <optional>
#include <vector>

#include "core/data_quality.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens::core::engine {

using DaySet = SnapshotCache::DaySet;

/// True when the Study's ingestion ledger (if any) trusts day `d` of feed
/// `f`. With no ledger attached every day is available.
inline bool day_available(const Study& s, Feed f, net::Date d) {
  return !s.quality || s.quality->day_available(f, d);
}

/// True when every feed in `feeds` is available on `d` — the gate a per-day
/// sample must pass before computing on that day's substrates.
inline bool day_available(const Study& s, std::initializer_list<Feed> feeds,
                          net::Date d) {
  for (Feed f : feeds) {
    if (!day_available(s, f, d)) return false;
  }
  return true;
}

/// The Study's SnapshotCache. A Study without one is a wiring error, not a
/// slower path: this is the one place it is raised.
inline const SnapshotCache& cache(const Study& s) {
  if (!s.snapshots) {
    throw InvariantError("core::Study has no SnapshotCache attached");
  }
  return *s.snapshots;
}

// Each space helper returns an empty DaySet for a day its substrate cannot
// serve: either the ingestion ledger marked the day unavailable, or the
// underlying computation failed (see SnapshotCache). Callers in per-day
// sampling loops must treat an empty DaySet as "skip and count this day",
// not dereference it.

inline DaySet routed_space(const Study& s, net::Date d) {
  const SnapshotCache& c = cache(s);
  return day_available(s, Feed::kBgpUpdates, d) ? c.routed_space(d)
                                                 : std::nullopt;
}

inline DaySet allocated_space(const Study& s, net::Date d) {
  const SnapshotCache& c = cache(s);
  return day_available(s, Feed::kDelegations, d) ? c.allocated_space(d)
                                                  : std::nullopt;
}

inline DaySet signed_space(const Study& s, net::Date d, rpki::TalSet tals,
                           rpki::RoaArchive::Filter filter =
                               rpki::RoaArchive::Filter::kAll) {
  const SnapshotCache& c = cache(s);
  return day_available(s, Feed::kRoas, d) ? c.signed_space(d, tals, filter)
                                          : std::nullopt;
}

inline DaySet free_pool(const Study& s, rir::Rir rir, net::Date d) {
  const SnapshotCache& c = cache(s);
  return day_available(s, Feed::kDelegations, d) ? c.free_pool(rir, d)
                                                  : std::nullopt;
}

inline DaySet irr_space(const Study& s, net::Date d) {
  const SnapshotCache& c = cache(s);
  return day_available(s, Feed::kIrr, d) ? c.irr_space(d) : std::nullopt;
}

/// fn(i) for i in [0, n): across the Study's pool when one is attached,
/// inline otherwise.
template <typename Fn>
void parallel_for(const Study& s, size_t n, Fn&& fn) {
  if (s.pool) {
    s.pool->parallel_for(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

/// The monthly sampling grid every longitudinal analysis uses: every 30
/// days from window_begin, plus window_end itself as the final sample.
inline std::vector<net::Date> sample_dates(const Study& s) {
  std::vector<net::Date> dates;
  for (net::Date d = s.window_begin; d < s.window_end; d += 30) {
    dates.push_back(d);
  }
  dates.push_back(s.window_end);
  return dates;
}

/// The latest sample-grid date on which every feed in `feeds` is available —
/// the graceful stand-in for window_end in end-of-window facts when the last
/// day's archives were unusable. Empty when no grid date qualifies.
inline std::optional<net::Date> last_available_date(
    const Study& s, std::initializer_list<Feed> feeds) {
  const std::vector<net::Date> dates = sample_dates(s);
  for (auto it = dates.rbegin(); it != dates.rend(); ++it) {
    if (day_available(s, feeds, *it)) return *it;
  }
  return std::nullopt;
}

}  // namespace droplens::core::engine
