// Flight recorder, the one trace model: explicit span contexts, slow/recent
// trace rings, and histogram exemplars — the "why was THIS request slow"
// layer, for requests and pipeline stages alike.
//
// A trace is a value, not thread state. SpanContext is explicit and
// movable: a transport parks it on its connection object between epoll
// callbacks (read one tick, serve the next, flush a third) and resumes it
// wherever the next stage runs, ThreadPool workers included. One context =
// one request = one root trace with per-stage timings and a final outcome
// tag. Span is the RAII form for a pipeline stage that opens and closes in
// one scope (a feed parser, an analysis, compile_snapshot, a .dls save or
// load): one trace of op class "pipeline" whose one stage carries the
// span's name. Spans do not nest; one opened inside another, or on a pool
// worker, is a trace of its own.
//
// The cost model, because this sits on the hot serving path:
//
//   recorder absent   begin() returns an inert context; every stage call is
//                     one branch, no clock read.
//   unsampled         stages are still timed — ONE steady_clock read per
//                     stage transition (a transition both closes the open
//                     stage and starts the next at the same timestamp) —
//                     into a fixed inline array; no allocation, no lock, no
//                     registry lookup (outcome counters are interned per op
//                     at setup). finish() takes the op's mutex ONLY when the
//                     request is slow enough for the slow ring (checked
//                     against a relaxed atomic floor first).
//   sampled (1/N)     same, plus finish() pushes into the recent ring under
//                     the op mutex.
//
// Stage names must be string literals (static storage duration) — contexts
// store the pointer, never copy the bytes.
//
// Per op class ("binary", "whois", "http", "ingest", "pipeline", ...) the
// recorder keeps two bounded rings: the N most recent sampled traces
// (/tracez) and the K slowest traces ever seen (/slowz) — slowness is
// judged on EVERY request, sampled or not, so the tail is never missed by
// the sampler. A per-op log2 duration histogram plus outcome counters go to
// the obs registry, and every capture stamps a per-bucket exemplar so a p99
// bucket on /metrics links to the trace id that produced it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace droplens::obs {

class FlightRecorder;

/// One finished request trace, as captured by the recorder.
struct RequestTrace {
  struct Stage {
    const char* name = "";
    uint64_t start_ns = 0;  ///< offset from the trace's start
    uint64_t dur_ns = 0;
  };
  uint64_t id = 0;            ///< process-unique trace id (exemplar link)
  std::string op;             ///< op class name
  std::string outcome;        ///< "ok", "shed", "timeout", "overload", ...
  uint64_t start_unix_ns = 0; ///< wall clock at begin(), for display
                              ///< (derived at capture — begin() never reads
                              ///< the realtime clock)
  uint64_t total_ns = 0;      ///< begin() to finish()
  std::vector<Stage> stages;
};

/// A request trace being built. Movable (park it on a connection, hand it
/// to another thread), not copyable; exactly one thread may touch it at a
/// time — the same exclusive-ownership rule as the bytes of the request it
/// follows. Default-constructed and moved-from contexts are inert: every
/// call is a null test.
class SpanContext {
 public:
  /// Deep enough for accept→read→serve(+sub-stages)→flush; stages past the
  /// cap are dropped (counted in droplens_recorder_stages_dropped_total).
  static constexpr size_t kMaxStages = 12;

  SpanContext() = default;
  SpanContext(SpanContext&& other) noexcept { move_from(other); }
  SpanContext& operator=(SpanContext&& other) noexcept {
    if (this != &other) {
      abandon();
      move_from(other);
    }
    return *this;
  }
  SpanContext(const SpanContext&) = delete;
  SpanContext& operator=(const SpanContext&) = delete;
  /// An armed context that is destroyed without finish() submits itself
  /// with outcome "abandoned" — a dropped request is still evidence.
  ~SpanContext() { abandon(); }

  /// True when following a request (armed); false = every call is a no-op.
  explicit operator bool() const { return recorder_ != nullptr; }
  /// True when this trace is bound for the recent ring (the 1/N sampler
  /// picked it), not just slow-ring eligible.
  bool sampled() const { return sampled_; }

  /// Open a stage. An open stage is closed implicitly — stages on one
  /// context are sequential, matching a request's lifecycle.
  void stage(const char* name);
  /// Close the open stage (idempotent). finish() also closes it.
  void stage_end();

  /// Submit the trace with its final outcome. The context is inert after.
  void finish(std::string_view outcome);

 private:
  friend class FlightRecorder;

  void move_from(SpanContext& other) noexcept {
    recorder_ = other.recorder_;
    other.recorder_ = nullptr;
    op_ = other.op_;
    sampled_ = other.sampled_;
    stage_count_ = other.stage_count_;
    stage_open_ = other.stage_open_;
    dropped_ = other.dropped_;
    start_ns_ = other.start_ns_;
    stages_ = other.stages_;
  }
  void abandon() {
    if (recorder_) finish("abandoned");
  }
  /// Close the open stage at a timestamp the caller already read — stage
  /// transitions and finish() cost ONE clock read, not two.
  void close_stage(uint64_t now_ns);

  FlightRecorder* recorder_ = nullptr;
  uint16_t op_ = 0;
  bool sampled_ = false;
  uint8_t stage_count_ = 0;
  bool stage_open_ = false;
  uint8_t dropped_ = 0;  // stages past kMaxStages (counted, not recorded)
  uint64_t start_ns_ = 0;       // steady clock, ns
  std::array<RequestTrace::Stage, kMaxStages> stages_{};
};

/// RAII stage scope over a SpanContext — for code paths where the stage
/// does begin and end in one frame (Server's decode/answer/encode).
class StageScope {
 public:
  StageScope(SpanContext& ctx, const char* name) : ctx_(ctx) {
    ctx_.stage(name);
  }
  ~StageScope() { ctx_.stage_end(); }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  SpanContext& ctx_;
};

class FlightRecorder : public ExemplarSource {
 public:
  struct Options {
    /// 1-in-N recent-ring sampling. 1 = every request; 0 behaves as 1.
    uint32_t sample_period = 1024;
    /// Recent sampled traces kept per op class (/tracez).
    size_t recent_capacity = 64;
    /// Slowest traces kept per op class (/slowz).
    size_t slow_capacity = 16;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);

  /// Intern an op class by name (idempotent; returns a stable index).
  /// Call once at setup, not per request (Span calls it per pipeline stage,
  /// a scope of tens of µs or more). Throws std::logic_error past 64 op
  /// classes — that is a naming bug, not a workload.
  uint16_t op_class(const std::string& name);

  /// Begin a trace for `op` (an op_class index). Cheap: one relaxed
  /// fetch_add plus one steady-clock read (the wall-clock display stamp is
  /// derived at capture, so the realtime clock is never read per request).
  SpanContext begin(uint16_t op);

  /// The captured rings, oldest first / slowest first.
  std::vector<RequestTrace> recent(const std::string& op) const;
  std::vector<RequestTrace> slowest(const std::string& op) const;

  /// Plain-text renderings — the /tracez and /slowz page bodies.
  std::string render_tracez() const;
  std::string render_slowz() const;

  /// Total traces finished (including unsampled, never-captured ones).
  uint64_t finished() const {
    return finished_.load(std::memory_order_relaxed);
  }

  // ExemplarSource -----------------------------------------------------------
  /// Exemplars attach to this recorder's own histogram family
  /// (droplens_request_duration_ns{op=...}): the most recent captured trace
  /// whose duration fell in the bucket.
  std::optional<Exemplar> exemplar(const std::string& family,
                                   const Labels& labels,
                                   size_t bucket_index) const override;

  /// The histogram family exemplars attach to.
  static constexpr const char* kDurationFamily =
      "droplens_request_duration_ns";
  /// log2 buckets of the duration histogram (same scheme as the server's
  /// latency histogram).
  static constexpr size_t kDurationBuckets = 40;

 private:
  friend class SpanContext;
  static constexpr size_t kMaxOps = 64;
  /// Fixed outcome label set ("ok", "shed", ..., "other") — see kOutcomes
  /// in the implementation.
  static constexpr size_t kOutcomeLabels = 8;

  struct OpState {
    std::string name;
    /// Sampling counter: one per op so a chatty op cannot starve another.
    std::atomic<uint64_t> next_sample{0};
    /// Sole pre-lock test for slow-ring admission: the smallest total_ns
    /// currently in a FULL slow ring (0 while it has room, UINT64_MAX when
    /// the ring is disabled — the hot path never reads the ring itself).
    std::atomic<uint64_t> slow_floor{0};
    /// Per-bucket exemplar: id and duration of the last captured trace in
    /// that log2 bucket, packed as (id, ns) behind the mutex.
    std::array<uint64_t, kDurationBuckets> exemplar_id{};
    std::array<uint64_t, kDurationBuckets> exemplar_ns{};
    std::array<uint64_t, kDurationBuckets> exemplar_unix_ns{};
    mutable std::mutex mu;
    std::vector<RequestTrace> recent;   // ring, oldest first
    size_t recent_next = 0;             // ring cursor
    bool recent_wrapped = false;
    std::vector<RequestTrace> slow;     // sorted slowest-first, <= capacity
    obs::Histogram duration;
    obs::Counter stages_dropped;
    /// Outcome counters interned once at op_class() — submit() must never
    /// pay a registry lookup (label allocation + map probe) per request.
    std::array<obs::Counter, kOutcomeLabels> outcomes{};
  };

  void submit(SpanContext& ctx, std::string_view outcome, uint64_t end_ns);
  OpState* find_op(const std::string& name) const;

  const Options options_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> finished_{0};

  mutable std::mutex ops_mu_;  // guards op interning only
  // Fixed-capacity storage: op pointers handed to contexts stay valid for
  // the recorder's lifetime, and the hot path never takes ops_mu_.
  std::array<std::unique_ptr<OpState>, kMaxOps> ops_;
  std::atomic<size_t> op_count_{0};
};

/// Install `r` as the process-wide flight recorder (nullptr uninstalls).
/// Must outlive every context begun while installed.
void install_flight_recorder(FlightRecorder* r);
FlightRecorder* installed_flight_recorder();

/// RAII install/restore for tests and tools.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& r)
      : previous_(installed_flight_recorder()) {
    install_flight_recorder(&r);
  }
  ~ScopedFlightRecorder() { install_flight_recorder(previous_); }
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* previous_;
};

/// RAII pipeline-stage timer: one "pipeline" trace on the recorder installed
/// at construction, its one stage named `name` (a string literal). Finishes
/// "ok", or "error" when the scope is left by an exception, so a corrupt
/// .dls load never reads ok on /slowz. With no recorder installed the span
/// is inert: one atomic load and a branch, no clock read.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanContext ctx_;
  int exceptions_ = 0;  // std::uncaught_exceptions() at construction
};

}  // namespace droplens::obs
