// Unified metrics registry — the process-wide observability substrate.
//
// A Registry owns named metric families (counter / gauge / histogram), each
// holding label-distinguished series. Series are interned once, under the
// registry mutex, when an instrument handle is acquired; the handle itself
// is a raw pointer at atomic cells, so the record path is a single relaxed
// atomic add — lock-free, allocation-free, and TSan-clean. Reads snapshot
// every cell with relaxed loads under the same mutex, so exposition never
// blocks a writer and never tears a series list mid-registration.
//
// Two modes, chosen by the application:
//
//   installed  the app constructs a Registry and calls obs::install(&r);
//              subsystems (ThreadPool, SnapshotCache, svc::Server, the feed
//              parsers) bind instruments from it at construction/use time.
//   no-op      nothing installed. obs::counter(...) et al. return empty
//              handles whose record calls are one null-pointer test —
//              unobserved code costs nothing measurable. Objects whose
//              stats() read their own cells (svc::Server, the epoll
//              transport) bind a private registry instead (installed_or).
//
// Instruments bind at acquisition time: install the registry before the
// subsystems you want instrumented are constructed. Observability is
// strictly read-only on the data plane — instruments never feed back into
// analysis results (guarded by the determinism tests).
//
// This library is dependency-free by design: anything (including
// droplens_util) may link it without cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace droplens::obs {

/// Label key/value pairs, in the order they render. Keys within one family
/// must be consistent; series are interned by exact label-vector match.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count. Default-constructed handles are no-ops.
class Counter {
 public:
  Counter() = default;

  void inc(uint64_t n = 1) {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }
  /// True when bound to a registry series (false = no-op handle).
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::atomic<uint64_t>* cell) : cell_(cell) {}
  std::atomic<uint64_t>* cell_ = nullptr;
};

/// Point-in-time signed value. Default-constructed handles are no-ops.
class Gauge {
 public:
  Gauge() = default;

  void set(int64_t v) {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(int64_t n) {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  void sub(int64_t n) {
    if (cell_) cell_->fetch_sub(n, std::memory_order_relaxed);
  }
  int64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<int64_t>* cell) : cell_(cell) {}
  std::atomic<int64_t>* cell_ = nullptr;
};

namespace detail {

/// Shared cells of one histogram series. `bounds` are inclusive upper
/// bounds; bucket i counts observations v with v <= bounds[i] (and
/// > bounds[i-1]); one extra overflow (+Inf) bucket sits past the last
/// bound. Buckets are stored NON-cumulative; renderers cumulate.
struct HistogramCells {
  std::vector<uint64_t> bounds;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets;  // bounds.size() + 1
  std::atomic<uint64_t> sum{0};

  explicit HistogramCells(std::vector<uint64_t> b)
      : bounds(std::move(b)),
        buckets(new std::atomic<uint64_t>[bounds.size() + 1]()) {}
};

}  // namespace detail

/// Fixed-bucket distribution. Default-constructed handles are no-ops.
class Histogram {
 public:
  Histogram() = default;

  void observe(uint64_t v) {
    if (!cells_) return;
    const std::vector<uint64_t>& bounds = cells_->bounds;
    // First bucket whose upper bound holds v; past-the-end = overflow.
    size_t lo = 0, hi = bounds.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (v <= bounds[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cells_->buckets[lo].fetch_add(1, std::memory_order_relaxed);
    cells_->sum.fetch_add(v, std::memory_order_relaxed);
  }

  size_t bucket_count() const {
    return cells_ ? cells_->bounds.size() + 1 : 0;
  }
  /// Non-cumulative count of bucket `i` (the last index is the overflow
  /// bucket). Out-of-range or no-op handles read 0.
  uint64_t bucket_value(size_t i) const {
    if (!cells_ || i >= cells_->bounds.size() + 1) return 0;
    return cells_->buckets[i].load(std::memory_order_relaxed);
  }
  uint64_t sum() const {
    return cells_ ? cells_->sum.load(std::memory_order_relaxed) : 0;
  }

  /// Upper-bound estimate of the q-quantile (q in [0, 1]): the inclusive
  /// upper bound of the first bucket where the cumulative count reaches
  /// q * total. Resolution is the bucket width (a factor of 2 for
  /// log2_bounds); the overflow bucket answers UINT64_MAX. Reads are
  /// relaxed and unsynchronized with writers, like every other getter —
  /// fine for benchmark reporting, not for cross-counter invariants.
  /// No-op handles and empty histograms answer 0.
  uint64_t quantile(double q) const {
    if (!cells_) return 0;
    const size_t n = cells_->bounds.size() + 1;
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += cells_->buckets[i].load(std::memory_order_relaxed);
    }
    if (total == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const double target = q * static_cast<double>(total);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < n; ++i) {
      cumulative += cells_->buckets[i].load(std::memory_order_relaxed);
      if (static_cast<double>(cumulative) >= target && cumulative > 0) {
        return i < cells_->bounds.size() ? cells_->bounds[i] : UINT64_MAX;
      }
    }
    return UINT64_MAX;
  }

  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCells* cells) : cells_(cells) {}
  detail::HistogramCells* cells_ = nullptr;
};

class Registry {
 public:
  enum class Type : uint8_t { kCounter, kGauge, kHistogram };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create the (name, labels) series. Re-acquiring the same series
  /// returns a handle over the same cells. Throws std::logic_error when
  /// `name` is already registered as a different type (or, for histograms,
  /// with different bounds) — a naming bug worth failing loudly on.
  Counter counter(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Gauge gauge(const std::string& name, const Labels& labels = {},
              const std::string& help = "");
  Histogram histogram(const std::string& name, std::vector<uint64_t> bounds,
                      const Labels& labels = {}, const std::string& help = "");

  /// n power-of-two upper bounds {2^1-1, 2^2-1, ..., 2^n-1}: with the
  /// overflow bucket this yields n+1 buckets where bucket i counts values in
  /// [2^i, 2^(i+1)) — the engine's traditional log2 latency histogram.
  static std::vector<uint64_t> log2_bounds(size_t n);
  /// n linear upper bounds {width, 2*width, ..., n*width}.
  static std::vector<uint64_t> linear_bounds(uint64_t width, size_t n);

  // Snapshot-on-read view for renderers: every atomic loaded once, relaxed,
  // under the registry mutex. Families sorted by name, series by labels.
  struct SeriesSnapshot {
    Labels labels;
    uint64_t counter = 0;
    int64_t gauge = 0;
    std::vector<uint64_t> buckets;  // non-cumulative, histograms only
    uint64_t sum = 0;
  };
  struct FamilySnapshot {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::vector<uint64_t> bounds;
    std::vector<SeriesSnapshot> series;
  };
  std::vector<FamilySnapshot> snapshot() const;

 private:
  // Series live in a deque (stable addresses across growth) inside a map
  // node (stable across rehash/insert) — handles stay valid for the
  // registry's lifetime.
  struct Series {
    Labels labels;
    std::atomic<uint64_t> counter{0};
    std::atomic<int64_t> gauge{0};
    std::unique_ptr<detail::HistogramCells> hist;
  };
  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::vector<uint64_t> bounds;
    std::deque<Series> series;
  };

  Series& intern(const std::string& name, Type type, const Labels& labels,
                 const std::string& help,
                 const std::vector<uint64_t>* bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Install `r` as the process-wide registry (nullptr uninstalls). The
/// registry must outlive every instrument handle bound from it.
void install(Registry* r);
/// The installed registry, or nullptr (the no-op mode).
Registry* installed();

/// The installed registry, else `own` (created on first use). For objects
/// whose counters must count with or without an installed registry:
/// svc::Server and the transport counters read their stats back from the
/// cells they bind here.
Registry& installed_or(std::unique_ptr<Registry>& own);

// Ambient acquisition: bind from the installed registry, or return a no-op
// handle when none is installed. This is what subsystems call.
Counter counter(const std::string& name, const Labels& labels = {},
                const std::string& help = "");
Gauge gauge(const std::string& name, const Labels& labels = {},
            const std::string& help = "");
Histogram histogram(const std::string& name, std::vector<uint64_t> bounds,
                    const Labels& labels = {}, const std::string& help = "");

/// RAII helper for tests and tools: installs on construction, restores the
/// previous registry on destruction.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& r) : previous_(installed()) {
    install(&r);
  }
  ~ScopedRegistry() { install(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace droplens::obs
