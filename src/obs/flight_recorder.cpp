#include "obs/flight_recorder.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>

namespace droplens::obs {

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

uint64_t steady_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t unix_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// log2 bucket of a nanosecond duration: bucket i counts [2^i, 2^(i+1)),
/// everything at or past 2^39 lands in the overflow bucket — the same
/// mapping as Registry::log2_bounds(39).
size_t duration_bucket(uint64_t ns) {
  if (ns <= 1) return 0;
  const size_t b = static_cast<size_t>(std::bit_width(ns)) - 1;
  return std::min(b, FlightRecorder::kDurationBuckets - 1);
}

/// The fixed outcome label set: a bounded cardinality contract with the
/// metrics backend. Anything else counts as "other" (the trace itself still
/// records the verbatim outcome string).
constexpr const char* kOutcomes[] = {"ok",        "shed",  "timeout",
                                     "overload",  "malformed", "error",
                                     "abandoned", "other"};
constexpr size_t kOutcomeCount = sizeof(kOutcomes) / sizeof(kOutcomes[0]);

size_t outcome_index(std::string_view outcome) {
  for (size_t i = 0; i + 1 < kOutcomeCount; ++i) {
    if (outcome == kOutcomes[i]) return i;
  }
  return kOutcomeCount - 1;  // "other"
}

void render_one(std::string& out, const RequestTrace& t) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trace %llu op=%s outcome=%s total=%.3fms\n",
                static_cast<unsigned long long>(t.id), t.op.c_str(),
                t.outcome.c_str(), static_cast<double>(t.total_ns) / 1e6);
  out += buf;
  for (const RequestTrace::Stage& s : t.stages) {
    std::snprintf(buf, sizeof(buf), "  %-12s +%.3fms %.3fms\n", s.name,
                  static_cast<double>(s.start_ns) / 1e6,
                  static_cast<double>(s.dur_ns) / 1e6);
    out += buf;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SpanContext

void SpanContext::stage(const char* name) {
  if (!recorder_) return;
  const uint64_t now = steady_now_ns();
  close_stage(now);
  if (stage_count_ >= kMaxStages) {
    if (dropped_ < 255) ++dropped_;
    return;
  }
  RequestTrace::Stage& s = stages_[stage_count_++];
  s.name = name;
  s.start_ns = now - start_ns_;
  s.dur_ns = 0;
  stage_open_ = true;
}

void SpanContext::stage_end() {
  if (!recorder_ || !stage_open_) return;
  close_stage(steady_now_ns());
}

void SpanContext::close_stage(uint64_t now_ns) {
  if (!stage_open_) return;
  RequestTrace::Stage& s = stages_[stage_count_ - 1];
  s.dur_ns = now_ns - start_ns_ - s.start_ns;
  stage_open_ = false;
}

void SpanContext::finish(std::string_view outcome) {
  if (!recorder_) return;
  const uint64_t now = steady_now_ns();
  close_stage(now);
  FlightRecorder* recorder = recorder_;
  recorder_ = nullptr;  // inert from here on, even if submit throws
  recorder->submit(*this, outcome, now);
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::FlightRecorder(Options options) : options_(options) {}

uint16_t FlightRecorder::op_class(const std::string& name) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  const size_t count = op_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    if (ops_[i]->name == name) return static_cast<uint16_t>(i);
  }
  if (count >= kMaxOps) {
    throw std::logic_error("obs: flight recorder op class overflow");
  }
  auto op = std::make_unique<OpState>();
  op->name = name;
  op->recent.reserve(options_.recent_capacity);
  op->slow.reserve(options_.slow_capacity);
  if (options_.slow_capacity == 0) {
    // Disabled slow ring: park the admission floor at infinity so the
    // lock-free pre-check rejects without ever touching the ring.
    op->slow_floor.store(std::numeric_limits<uint64_t>::max(),
                         std::memory_order_relaxed);
  }
  op->duration = obs::histogram(
      kDurationFamily, Registry::log2_bounds(kDurationBuckets - 1),
      {{"op", name}},
      "End-to-end request duration in nanoseconds (log2 buckets)");
  op->stages_dropped =
      obs::counter("droplens_recorder_stages_dropped_total", {{"op", name}},
                   "Trace stages past the per-context cap");
  static_assert(kOutcomeLabels == kOutcomeCount,
                "header constant must track the outcome label set");
  for (size_t i = 0; i < kOutcomeCount; ++i) {
    op->outcomes[i] =
        obs::counter("droplens_requests_total",
                     {{"op", name}, {"outcome", kOutcomes[i]}},
                     "Requests finished, by op class and outcome");
  }
  ops_[count] = std::move(op);
  op_count_.store(count + 1, std::memory_order_release);
  return static_cast<uint16_t>(count);
}

SpanContext FlightRecorder::begin(uint16_t op) {
  SpanContext ctx;
  if (op >= op_count_.load(std::memory_order_acquire)) return ctx;
  ctx.recorder_ = this;
  ctx.op_ = op;
  const uint32_t period = std::max<uint32_t>(1, options_.sample_period);
  ctx.sampled_ =
      ops_[op]->next_sample.fetch_add(1, std::memory_order_relaxed) % period ==
      0;
  ctx.start_ns_ = steady_now_ns();
  return ctx;
}

void FlightRecorder::submit(SpanContext& ctx, std::string_view outcome,
                            uint64_t end_ns) {
  OpState& op = *ops_[ctx.op_];
  const uint64_t total_ns = end_ns - ctx.start_ns_;
  finished_.fetch_add(1, std::memory_order_relaxed);
  op.duration.observe(total_ns);
  if (ctx.dropped_ > 0) op.stages_dropped.inc(ctx.dropped_);
  // Pre-interned against the FIXED label set (kOutcomes), so a hostile
  // outcome string can never mint unbounded series and the hot path never
  // pays a registry lookup.
  op.outcomes[outcome_index(outcome)].inc();

  // Slow-ring admission is judged on EVERY request; the relaxed floor makes
  // the common (fast) case lock-free. The floor alone decides — it is 0
  // while the ring has room (admit everything measurable) and UINT64_MAX
  // when the ring is disabled, so no unlocked ring access is ever needed.
  const bool maybe_slow =
      total_ns > op.slow_floor.load(std::memory_order_relaxed);
  if (!ctx.sampled_ && !maybe_slow) return;

  RequestTrace trace;
  trace.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  trace.op = op.name;
  trace.outcome.assign(outcome.data(), outcome.size());
  // Wall-clock stamp derived here, on the capture path only — begin() pays
  // for one clock, not two, on the 1023/1024 uncaptured requests.
  trace.start_unix_ns = unix_now_ns() - total_ns;
  trace.total_ns = total_ns;
  trace.stages.assign(ctx.stages_.begin(),
                      ctx.stages_.begin() + ctx.stage_count_);

  std::lock_guard<std::mutex> lock(op.mu);
  const size_t bucket = duration_bucket(total_ns);
  op.exemplar_id[bucket] = trace.id;
  op.exemplar_ns[bucket] = total_ns;
  op.exemplar_unix_ns[bucket] = trace.start_unix_ns;
  if (options_.slow_capacity > 0) {
    const bool room = op.slow.size() < options_.slow_capacity;
    if (room || total_ns > op.slow.back().total_ns) {
      // Insert keeping slowest-first order; evict the fastest beyond cap.
      auto pos = std::upper_bound(
          op.slow.begin(), op.slow.end(), total_ns,
          [](uint64_t v, const RequestTrace& t) { return v > t.total_ns; });
      op.slow.insert(pos, trace);
      if (op.slow.size() > options_.slow_capacity) op.slow.pop_back();
      if (op.slow.size() == options_.slow_capacity) {
        op.slow_floor.store(op.slow.back().total_ns,
                            std::memory_order_relaxed);
      }
    }
  }
  if (ctx.sampled_ && options_.recent_capacity > 0) {
    if (op.recent.size() < options_.recent_capacity) {
      op.recent.push_back(std::move(trace));
    } else {
      op.recent[op.recent_next] = std::move(trace);
      op.recent_next = (op.recent_next + 1) % options_.recent_capacity;
      op.recent_wrapped = true;
    }
  }
}

FlightRecorder::OpState* FlightRecorder::find_op(
    const std::string& name) const {
  const size_t count = op_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    if (ops_[i]->name == name) return ops_[i].get();
  }
  return nullptr;
}

std::vector<RequestTrace> FlightRecorder::recent(const std::string& op) const {
  std::vector<RequestTrace> out;
  OpState* state = find_op(op);
  if (!state) return out;
  std::lock_guard<std::mutex> lock(state->mu);
  // Oldest first: the ring cursor points at the oldest once wrapped.
  const size_t n = state->recent.size();
  const size_t first = state->recent_wrapped ? state->recent_next : 0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(state->recent[(first + i) % n]);
  }
  return out;
}

std::vector<RequestTrace> FlightRecorder::slowest(
    const std::string& op) const {
  OpState* state = find_op(op);
  if (!state) return {};
  std::lock_guard<std::mutex> lock(state->mu);
  return state->slow;
}

std::string FlightRecorder::render_tracez() const {
  std::string out;
  const size_t count = op_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    out += "== op ";
    out += ops_[i]->name;
    out += " (sampled recent, oldest first) ==\n";
    for (const RequestTrace& t : recent(ops_[i]->name)) render_one(out, t);
  }
  return out;
}

std::string FlightRecorder::render_slowz() const {
  std::string out;
  const size_t count = op_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    out += "== op ";
    out += ops_[i]->name;
    out += " (slowest first) ==\n";
    for (const RequestTrace& t : slowest(ops_[i]->name)) render_one(out, t);
  }
  return out;
}

std::optional<Exemplar> FlightRecorder::exemplar(const std::string& family,
                                                 const Labels& labels,
                                                 size_t bucket_index) const {
  if (family != kDurationFamily || bucket_index >= kDurationBuckets) {
    return std::nullopt;
  }
  const std::string* op_name = nullptr;
  for (const auto& [key, value] : labels) {
    if (key == "op") op_name = &value;
  }
  if (!op_name) return std::nullopt;
  OpState* state = find_op(*op_name);
  if (!state) return std::nullopt;
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->exemplar_id[bucket_index] == 0) return std::nullopt;
  Exemplar ex;
  ex.labels = {{"trace_id", std::to_string(state->exemplar_id[bucket_index])}};
  ex.value = static_cast<double>(state->exemplar_ns[bucket_index]);
  ex.timestamp_s =
      static_cast<double>(state->exemplar_unix_ns[bucket_index]) / 1e9;
  return ex;
}

// ---------------------------------------------------------------------------
// Span

Span::Span(const char* name) {
  FlightRecorder* r = installed_flight_recorder();
  if (!r) return;  // inert: no clock read, nothing recorded
  exceptions_ = std::uncaught_exceptions();
  ctx_ = r->begin(r->op_class("pipeline"));
  ctx_.stage(name);
}

Span::~Span() {
  if (!ctx_) return;
  ctx_.finish(std::uncaught_exceptions() > exceptions_ ? "error" : "ok");
}

void install_flight_recorder(FlightRecorder* r) {
  g_recorder.store(r, std::memory_order_release);
}

FlightRecorder* installed_flight_recorder() {
  return g_recorder.load(std::memory_order_acquire);
}

}  // namespace droplens::obs
