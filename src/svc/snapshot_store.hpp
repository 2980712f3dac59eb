// Date-keyed snapshot store: the persistence layer under a serving daemon.
//
// One study window is many dates; the store keeps the whole window
// reachable behind one call: a directory of `YYYYMMDD.dls` files
// (svc/snapshot_io.hpp) plus an LRU of resident days — mmap-loaded from
// disk when a keyframe file exists, reconstructed over the base chain when
// the file is a delta, compiled through the engine on miss (and written
// through, so the next process start mmaps instead of recompiling).
//
// The store owns version assignment. Snapshot versions exist so clients can
// tell "same bytes re-served" from "new artifact" across reloads; before
// the store, every call site passed its own counter to compile_snapshot and
// nothing guaranteed uniqueness across dates. Here a single monotonic
// counter stamps every materialization — load, patch, compile, or
// re-materialization after eviction/rescan — so two distinct snapshot
// objects never share a version (asserted by tests/test_snapshot_io.cpp).
//
// Residency rule: recency is what clients ask for. Only a client's own
// get() stamps a day as used. A base that a delta resolve loads for another
// day enters cold (the first victim once over capacity), and a resident
// base that a resolve reads keeps the recency clients gave it. So an
// old-chain request evicts its own bases before any day clients are
// reading, and the requested day outlives its bases (label `window`).
//
// Thread safety: a short registry mutex guards the date→slot map, the LRU
// clock, and the counters; every date additionally owns a materialization
// latch. get() touches the registry lock only to find or create the slot,
// then materializes (mmap / patch / compile — ~0.6 s at paper scale for a
// compile) under the slot's own latch, so a miss on one date never blocks
// concurrent get()s for other dates (regression-tested under TSan, label
// `window`). Latches nest only along delta chains, whose hops go strictly
// back in time (loader-validated), so they are always acquired in
// decreasing date order; the registry lock is never held while acquiring a
// latch. Returned shared_ptrs are immutable snapshots, safe to share.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/date.hpp"
#include "obs/metrics.hpp"
#include "svc/snapshot.hpp"

namespace droplens::core {
class DropIndex;
struct Study;
}  // namespace droplens::core

namespace droplens::svc {

class SnapshotStore {
 public:
  struct Config {
    /// Directory of .dls files. Empty = memory-only store (no load/save);
    /// created on first save if missing.
    std::string dir;
    /// Max resident (mapped, patched, or compiled) days; least-recently-
    /// used days are dropped beyond it, bases never used by a client
    /// first. 0 = unbounded.
    size_t max_resident = 8;
    /// Write a .dls for every compile miss (requires `dir`). Always a
    /// keyframe — healing a corrupt delta rewrites it as one.
    bool save_compiled = true;
  };

  struct Stats {
    size_t resident_hits = 0;
    size_t loads = 0;          // keyframe mmap loads that succeeded
    size_t delta_loads = 0;    // delta reconstructions that succeeded
    size_t load_failures = 0;  // corrupt/unreadable files encountered
    size_t compiles = 0;
    size_t saves = 0;
    size_t evictions = 0;
  };

  /// Longest base chain a delta load will follow before declaring the file
  /// bad; `snapshot_tool delta --keyframe-every=K` keeps real chains short.
  static constexpr int kMaxDeltaChain = 512;

  /// `study` and `index` enable compile-on-miss; pass null for a disk-only
  /// store. Both must outlive the store.
  explicit SnapshotStore(Config config, const core::Study* study = nullptr,
                         const core::DropIndex* index = nullptr);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The snapshot for `d`: resident if cached; else mmap-loaded (keyframe)
  /// or patched over its base chain (delta) from `dir/YYYYMMDD.dls`; else
  /// compiled (written through when configured). Compile-on-miss serves
  /// only dates inside the study window — wire-supplied dates outside it
  /// return null instead of compiling, so a hostile client cannot churn
  /// the LRU or fill the disk (files already in the directory are served
  /// whatever their date). Returns null when neither disk nor a compiler
  /// can serve the date. A corrupt file — including a
  /// delta whose chain is broken — falls back to compile when a compiler is
  /// attached, re-saving over the bad file, and rethrows its
  /// SnapshotFormatError otherwise (on every call: failures are never
  /// cached).
  std::shared_ptr<const Snapshot> get(net::Date d);

  /// Re-sync residency with the directory — the SIGHUP hook. Incremental:
  /// a resident day whose backing file still has the size and mtime
  /// recorded at load time is kept (no thundering herd of re-mmaps after a
  /// reload signal); changed, deleted, and file-less (memory-only or
  /// unsaved-compile) days are dropped so the next get() re-materializes
  /// them. Version numbers keep counting up: a re-materialized day never
  /// reuses a version an earlier mapping served.
  void rescan();

  /// Dates with a .dls file in the directory, ascending. Files whose names
  /// don't parse as YYYYMMDD.dls are ignored.
  std::vector<net::Date> on_disk() const;

  static std::string file_name(net::Date d);  // "YYYYMMDD.dls"
  std::string path_for(net::Date d) const;

  Stats stats() const;
  size_t resident_count() const;

  /// Test-only: called at the top of every materialization, under the
  /// date's latch with no registry lock held — a hook that blocks proves
  /// other dates stay servable mid-miss. Set before any concurrent use.
  void set_materialize_hook_for_tests(std::function<void(net::Date)> hook) {
    materialize_hook_ = std::move(hook);
  }

 private:
  /// File identity at materialization time, for incremental rescan.
  struct FileStamp {
    uint64_t size = 0;
    int64_t mtime = 0;  // filesystem clock ticks since its epoch
  };
  static std::optional<FileStamp> stat_stamp(const std::string& path);

  /// One date's residency. `latch` serializes materialization of this date
  /// only; `snap` and `stamp` are written under it before `ready` is set
  /// (release) and are immutable once `ready` reads true (acquire).
  /// `last_used` belongs to the registry lock; 0 = never used by a client.
  struct Slot {
    std::mutex latch;
    std::atomic<bool> ready{false};
    std::shared_ptr<const Snapshot> snap;
    bool has_stamp = false;
    FileStamp stamp;
    uint64_t last_used = 0;
  };

  std::shared_ptr<const Snapshot> get_internal(net::Date d, int depth);
  /// Under the slot latch; takes mu_ only for counter bumps.
  std::shared_ptr<const Snapshot> materialize(net::Date d, Slot& slot,
                                              int depth);
  void evict_over_capacity();  // under mu_
  /// Under mu_: republish resident_.size() as droplens_store_resident_days
  /// — the same number resident_count() answers, so /healthz and a
  /// Prometheus scrape can never disagree about residency.
  void update_resident_gauge() {
    resident_days_.set(static_cast<int64_t>(resident_.size()));
  }
  /// Drop `slot` from the registry if it is still the one registered for
  /// `d` — the failure path, so corrupt dates retry on every get().
  void forget(net::Date d, const std::shared_ptr<Slot>& slot);
  uint64_t next_version() { return next_version_.fetch_add(1) + 1; }

  const Config config_;
  const core::Study* study_;
  const core::DropIndex* index_;
  std::function<void(net::Date)> materialize_hook_;

  std::atomic<uint64_t> next_version_{0};  // last version handed out

  mutable std::mutex mu_;  // registry lock: resident_, clock_, stats_
  uint64_t clock_ = 0;     // LRU stamp source
  std::map<net::Date, std::shared_ptr<Slot>> resident_;
  Stats stats_;
  obs::Gauge resident_days_;  // mirrors resident_.size()
};

}  // namespace droplens::svc
