// The study context: references to the five data sets plus the measurement
// window. Analyses take a Study and nothing else — exactly the inputs the
// paper had (§3).
#pragma once

#include "bgp/fleet.hpp"
#include "drop/drop_list.hpp"
#include "drop/sbl.hpp"
#include "irr/database.hpp"
#include "net/date.hpp"
#include "rir/registry.hpp"
#include "rpki/archive.hpp"

namespace droplens::util {
class ThreadPool;
}  // namespace droplens::util

namespace droplens::core {

class DataQuality;
class SnapshotCache;

struct Study {
  const rir::Registry& registry;
  const bgp::CollectorFleet& fleet;
  const irr::Database& irr;
  const rpki::RoaArchive& roas;
  const drop::DropList& drop;
  const drop::SblDatabase& sbl;
  net::Date window_begin;
  net::Date window_end;

  // Engine hooks (see core/engine.hpp). `snapshots`, a SnapshotCache over
  // the same substrates, serves every per-day set; it is required before
  // the Study reaches an analysis or svc::compile_snapshot (a per-day set
  // asked of a Study without one is an InvariantError), and write_report
  // attaches one when the caller has none. `pool` is optional and fans
  // per-date and per-entry work across threads; null runs it inline.
  SnapshotCache* snapshots = nullptr;
  util::ThreadPool* pool = nullptr;

  // Optional ingestion ledger (see core/data_quality.hpp). When set, per-day
  // sampling loops skip days it marks unavailable (counting each skip) and
  // the report gains a "Data quality" section. Null — the default — means
  // every day is trusted, exactly the pre-fault-tolerance behavior.
  const DataQuality* quality = nullptr;
};

}  // namespace droplens::core
