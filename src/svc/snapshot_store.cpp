#include "svc/snapshot_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>

#include "core/drop_index.hpp"
#include "core/study.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "svc/snapshot_io.hpp"
#include "util/error.hpp"

namespace droplens::svc {

namespace fs = std::filesystem;

std::optional<SnapshotStore::FileStamp> SnapshotStore::stat_stamp(
    const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  if (ec) return std::nullopt;
  fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return std::nullopt;
  return FileStamp{size, mtime.time_since_epoch().count()};
}

SnapshotStore::SnapshotStore(Config config, const core::Study* study,
                             const core::DropIndex* index)
    : config_(std::move(config)), study_(study), index_(index) {
  resident_days_ =
      obs::gauge("droplens_store_resident_days", {},
                 "Days currently resident (mapped, patched, or compiled) in "
                 "the snapshot store");
}

std::string SnapshotStore::file_name(net::Date d) {
  net::Date::Ymd ymd = d.ymd();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d%02d%02d.dls", ymd.year, ymd.month,
                ymd.day);
  return buf;
}

std::string SnapshotStore::path_for(net::Date d) const {
  return (fs::path(config_.dir) / file_name(d)).string();
}

std::shared_ptr<const Snapshot> SnapshotStore::get(net::Date d) {
  return get_internal(d, 0);
}

std::shared_ptr<const Snapshot> SnapshotStore::get_internal(net::Date d,
                                                            int depth) {
  for (;;) {
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<Slot>& registered = resident_[d];
      if (!registered) {
        registered = std::make_shared<Slot>();
        update_resident_gauge();
      }
      slot = registered;
      // Only a client's own get() is a use: a base resolved for another
      // day neither enters warm nor refreshes a resident base.
      if (depth == 0) slot->last_used = ++clock_;
      if (slot->ready.load(std::memory_order_acquire)) {
        ++stats_.resident_hits;
        return slot->snap;
      }
    }
    // Miss or in-flight: serialize materialization of this date only. The
    // registry lock is NOT held here, so other dates stay fully servable
    // while this one mmaps, patches, or compiles.
    std::unique_lock<std::mutex> latch(slot->latch);
    if (slot->ready.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.resident_hits;  // another thread finished while we waited
      return slot->snap;
    }
    {
      // A failed materializer may have dropped the slot while we waited on
      // its latch; restart so the result lands in a registered slot.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = resident_.find(d);
      if (it == resident_.end() || it->second != slot) continue;
    }
    if (materialize_hook_) materialize_hook_(d);
    std::shared_ptr<const Snapshot> snap;
    try {
      snap = materialize(d, *slot, depth);
    } catch (...) {
      forget(d, slot);
      throw;
    }
    if (!snap) {
      forget(d, slot);
      return nullptr;
    }
    slot->snap = snap;
    slot->ready.store(true, std::memory_order_release);
    latch.unlock();
    {
      std::lock_guard<std::mutex> lock(mu_);
      evict_over_capacity();
    }
    return snap;
  }
}

std::shared_ptr<const Snapshot> SnapshotStore::materialize(net::Date d,
                                                           Slot& slot,
                                                           int depth) {
  const bool can_compile = study_ != nullptr && index_ != nullptr;
  if (!config_.dir.empty()) {
    std::string path = path_for(d);
    std::error_code ec;
    if (fs::exists(path, ec)) {
      try {
        // Stamp before reading: a file replaced mid-load records the OLD
        // identity, so the next rescan sees a mismatch and drops the day —
        // stale residency is impossible, re-reads are merely wasted.
        std::optional<FileStamp> stamp = stat_stamp(path);
        std::shared_ptr<const Snapshot> snap;
        if (snapshot_file_kind(path) == SnapshotFileKind::kDelta) {
          if (depth >= kMaxDeltaChain) {
            throw SnapshotFormatError(
                SnapshotIoError::kBadInvariant,
                "snapshot_store: delta chain deeper than " +
                    std::to_string(kMaxDeltaChain));
          }
          SnapshotDeltaHeader h = read_snapshot_delta_header(path);
          // Resolve the base through the store itself: bases land in the
          // LRU (hot chains resolve once) and their latches nest in
          // strictly decreasing date order (h.base < d, loader-validated).
          std::shared_ptr<const Snapshot> base =
              get_internal(net::Date(h.base_date_days), depth + 1);
          if (!base) {
            throw SnapshotFormatError(
                SnapshotIoError::kIo,
                "snapshot_store: delta base " +
                    net::Date(h.base_date_days).to_string() +
                    " is unavailable");
          }
          snap = load_snapshot_delta(path, *base, next_version());
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.delta_loads;
        } else {
          snap = load_snapshot(path, next_version());
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.loads;
        }
        if (stamp) {
          slot.has_stamp = true;
          slot.stamp = *stamp;
        }
        return snap;
      } catch (const SnapshotFormatError&) {
        // A damaged file — or a delta whose chain is broken — is not fatal
        // when we can rebuild its content; the re-save below replaces it
        // with a keyframe. Without a compiler the caller must hear about
        // the corruption.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.load_failures;
        }
        obs::counter("droplens_svc_snapshot_load_failures_total", {},
                     "Snapshot files rejected by the loader")
            .inc();
        if (!can_compile) throw;
      }
    }
  }
  if (!can_compile) return nullptr;
  if (d < study_->window_begin || d > study_->window_end) {
    // Dates are client-supplied wire input once a Server fronts the store;
    // compiling (and write-through saving) whatever a peer asks for would
    // let one client fill the LRU and the disk. Files an operator placed in
    // the directory are served regardless of the window, above.
    return nullptr;
  }
  auto snap = compile_snapshot(*study_, *index_, d, next_version());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compiles;
  }
  if (config_.save_compiled && !config_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    std::string path = path_for(d);
    try {
      save_snapshot(*snap, path);
    } catch (const SnapshotFormatError& e) {
      // A full disk or read-only directory must not cost a good compile:
      // serve it file-less (rescan drops it, as for a memory-only store).
      DLOG_WARN("snapshot write-through failed",
                {{"path", path}, {"error", e.what()}});
      return snap;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.saves;
    }
    if (std::optional<FileStamp> stamp = stat_stamp(path)) {
      slot.has_stamp = true;
      slot.stamp = *stamp;
    }
  }
  return snap;
}

void SnapshotStore::forget(net::Date d, const std::shared_ptr<Slot>& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = resident_.find(d);
  if (it != resident_.end() && it->second == slot) {
    resident_.erase(it);
    update_resident_gauge();
  }
}

void SnapshotStore::evict_over_capacity() {
  if (config_.max_resident == 0) return;
  for (;;) {
    // Only ready slots count against capacity or are eligible as victims;
    // an in-flight slot's materializer still expects to publish into it.
    size_t ready_count = 0;
    auto victim = resident_.end();
    for (auto it = resident_.begin(); it != resident_.end(); ++it) {
      if (!it->second->ready.load(std::memory_order_acquire)) continue;
      ++ready_count;
      if (victim == resident_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (ready_count <= config_.max_resident || victim == resident_.end()) {
      return;
    }
    resident_.erase(victim);
    ++stats_.evictions;
    update_resident_gauge();
  }
}

void SnapshotStore::rescan() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = resident_.begin(); it != resident_.end();) {
    const Slot& slot = *it->second;
    if (!slot.ready.load(std::memory_order_acquire)) {
      // In-flight: its materializer stamped the file before reading it, so
      // whatever it produces is already consistent with this rescan.
      ++it;
      continue;
    }
    bool keep = false;
    if (!config_.dir.empty() && slot.has_stamp) {
      std::optional<FileStamp> now = stat_stamp(path_for(it->first));
      keep = now && now->size == slot.stamp.size &&
             now->mtime == slot.stamp.mtime;
    }
    it = keep ? std::next(it) : resident_.erase(it);
  }
  update_resident_gauge();
}

std::vector<net::Date> SnapshotStore::on_disk() const {
  std::vector<net::Date> dates;
  if (config_.dir.empty()) return dates;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() != 12 || name.substr(8) != ".dls") continue;
    try {
      dates.push_back(net::Date::parse(name.substr(0, 8)));
    } catch (const ParseError&) {
      continue;
    }
  }
  std::sort(dates.begin(), dates.end());
  return dates;
}

SnapshotStore::Stats SnapshotStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SnapshotStore::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_.size();
}

}  // namespace droplens::svc
