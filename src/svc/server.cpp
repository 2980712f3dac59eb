#include "svc/server.hpp"

#include <chrono>
#include <map>
#include <vector>

#include "obs/prometheus.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens::svc {

namespace {

// Wire order of the stats op's per-field counters (= Field bit positions).
constexpr const char* kFieldNames[kFieldCount] = {
    "drop", "classification", "rov", "as0", "irr", "rir", "routed"};

// Queries per Snapshot::lookup_batch call on the serving path. Chunks are
// answered into disjoint slices of the response array, so the parallel_for
// fan-out below stays byte-deterministic for any thread count; the scratch
// per chunk lives on the worker's stack.
constexpr size_t kServeChunk = 512;

// Answer queries[c*kServeChunk ...) against `s`, batching every query whose
// `accept` predicate passes and writing `miss` for the rest.
template <typename Accept>
void answer_chunk(const Snapshot& s, const std::vector<Query>& queries,
                  std::vector<Answer>& answers, size_t c, const Accept& accept,
                  const Answer& miss) {
  const size_t begin = c * kServeChunk;
  const size_t end = std::min(queries.size(), begin + kServeChunk);
  net::Prefix prefixes[kServeChunk];
  uint8_t fields[kServeChunk];
  uint32_t slot[kServeChunk];
  Answer out[kServeChunk];
  size_t m = 0;
  for (size_t i = begin; i < end; ++i) {
    const Query& q = queries[i];
    if (!accept(q)) {
      answers[i] = miss;
      continue;
    }
    prefixes[m] = q.prefix;
    fields[m] = q.fields;
    slot[m] = static_cast<uint32_t>(i);
    ++m;
  }
  s.lookup_batch(std::span<const net::Prefix>(prefixes, m),
                 std::span<const uint8_t>(fields, m), std::span<Answer>(out, m));
  for (size_t j = 0; j < m; ++j) answers[slot[j]] = out[j];
}

}  // namespace

Server::Server(std::shared_ptr<const Snapshot> initial, util::ThreadPool* pool)
    : snapshot_(std::move(initial)), pool_(pool) {
  registry_ = obs::installed();
  if (!registry_) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry_ = own_registry_.get();
  }
  requests_ = registry_->counter("droplens_svc_requests_total", {},
                                 "Frames handled, any type");
  queries_ = registry_->counter("droplens_svc_queries_total", {},
                                "Individual prefix lookups");
  malformed_ = registry_->counter("droplens_svc_malformed_total", {},
                                  "Frames rejected by the decoder");
  reloads_ = registry_->counter("droplens_svc_reloads_total", {},
                                "Snapshots published after the first");
  unavailable_ =
      registry_->counter("droplens_svc_unavailable_dates_total", {},
                         "Query dates the snapshot store could not serve");
  for (size_t i = 0; i < kFieldCount; ++i) {
    field_lookups_[i] =
        registry_->counter("droplens_svc_field_lookups_total",
                           {{"field", kFieldNames[i]}},
                           "Per-field lookups across answered queries");
  }
  latency_ = registry_->histogram(
      "droplens_svc_request_latency_ns",
      obs::Registry::log2_bounds(kLatencyBuckets - 1), {},
      "Frame service time in nanoseconds (log2 buckets)");
}

Server::Server(SnapshotStore& store, util::ThreadPool* pool)
    : Server(nullptr, pool) {
  store_ = &store;
}

void Server::publish(std::shared_ptr<const Snapshot> snap) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_) reloads_.inc();
  snapshot_ = std::move(snap);
}

std::shared_ptr<const Snapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.value();
  s.queries = queries_.value();
  s.malformed = malformed_.value();
  s.reloads = reloads_.value();
  if (std::shared_ptr<const Snapshot> snap = snapshot()) {
    s.snapshot_version = snap->version();
  } else if (store_) {
    s.snapshot_version = last_served_version_.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kFieldCount; ++i) {
    s.field_lookups[i] = field_lookups_[i].value();
  }
  s.latency_ns_buckets.resize(kLatencyBuckets);
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    s.latency_ns_buckets[i] = latency_.bucket_value(i);
  }
  return s;
}

size_t Server::message_size(std::string_view buffer) const {
  return frame_size(buffer);
}

std::string Server::malformed_response(std::string_view /*head*/) {
  malformed_.inc();
  return encode_error("malformed frame");
}

MessageClass Server::classify(std::string_view message) const {
  if (message.size() < 4) return MessageClass::kNormal;
  switch (static_cast<FrameType>(static_cast<uint8_t>(message[3]))) {
    case FrameType::kRangeRequest:
      return MessageClass::kBulk;  // most work per frame — shed first
    case FrameType::kStatsRequest:
    case FrameType::kMetricsRequest:
      return MessageClass::kControl;  // observability — shed last
    default:
      return MessageClass::kNormal;
  }
}

std::string Server::overload_response(std::string_view message) {
  return encode_error(message.empty() ? "overloaded: connection limit"
                                      : "overloaded: request shed");
}

std::string Server::timeout_response() {
  return encode_error("deadline exceeded");
}

std::string Server::serve(std::string_view frame) {
  obs::SpanContext inert;
  return serve(frame, inert);
}

std::string Server::serve(std::string_view frame, obs::SpanContext& ctx) {
  const auto start = std::chrono::steady_clock::now();
  requests_.inc();
  std::string response;
  try {
    ctx.stage("decode");
    FrameHeader header = decode_header(frame);
    if (kHeaderSize + header.payload_len != frame.size()) {
      throw ParseError("svc: frame length mismatch");
    }
    ctx.stage("answer");
    switch (header.type) {
      case FrameType::kQueryRequest:
        response = handle_queries(frame_payload(frame));
        break;
      case FrameType::kStatsRequest:
        if (!frame_payload(frame).empty()) {
          throw ParseError("svc: stats request carries a payload");
        }
        response = encode_stats_response(stats());
        break;
      case FrameType::kMetricsRequest:
        if (!frame_payload(frame).empty()) {
          throw ParseError("svc: metrics request carries a payload");
        }
        response = encode_metrics_response(obs::render_prometheus(*registry_));
        break;
      case FrameType::kRangeRequest:
        response = handle_range(frame_payload(frame));
        break;
      case FrameType::kSubscribeRequest: {
        StreamFeed* feed = stream_feed_.load(std::memory_order_acquire);
        response = feed ? feed->handle_subscribe(frame_payload(frame))
                        : encode_error("no stream feed attached");
        break;
      }
      default:
        throw ParseError("svc: unexpected frame type from client");
    }
  } catch (const ParseError& e) {
    malformed_.inc();
    response = encode_error(e.what());
  }
  ctx.stage_end();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  latency_.observe(static_cast<uint64_t>(ns));
  return response;
}

std::string Server::handle_queries(std::string_view payload) {
  std::vector<Query> queries = decode_query_request(payload);
  if (store_) return handle_store_queries(queries);
  // One snapshot copy per frame: every answer below is computed against it,
  // however many publishes race with us.
  std::shared_ptr<const Snapshot> snap = snapshot();
  if (!snap) return encode_error("no snapshot loaded");

  queries_.inc(queries.size());
  QueryResponse response;
  response.snapshot_version = snap->version();
  response.date = snap->date();
  response.degraded = snap->degraded();
  response.answers.resize(queries.size());

  const Snapshot& s = *snap;
  Answer wrong_date;
  wrong_date.status = static_cast<uint8_t>(QueryStatus::kWrongDate);
  auto accept = [&](const Query& q) { return q.date == s.date(); };
  auto serve_chunk = [&](size_t c) {
    answer_chunk(s, queries, response.answers, c, accept, wrong_date);
  };
  const size_t chunks = (queries.size() + kServeChunk - 1) / kServeChunk;
  if (pool_ && queries.size() >= kParallelThreshold) {
    pool_->parallel_for(chunks, serve_chunk);
  } else {
    for (size_t c = 0; c < chunks; ++c) serve_chunk(c);
  }

  // Count per-field lookups once per answered query; sequential and cheap.
  for (const Query& q : queries) {
    if (q.date != s.date()) continue;
    for (uint8_t f = 0; f < kFieldCount; ++f) {
      if (q.fields & (uint8_t{1} << f)) {
        field_lookups_[f].inc();
      }
    }
  }
  return encode_query_response(response);
}

std::string Server::handle_store_queries(const std::vector<Query>& queries) {
  // Group by date and resolve each distinct date exactly once per frame.
  // Resolution is sequential on purpose: a get() may compile (~0.6 s at
  // paper scale), and the store's per-date latches already dedup identical
  // misses across concurrent frames — fanning the gets out here would just
  // pile threads onto the same latches.
  std::map<net::Date, std::shared_ptr<const Snapshot>> by_date;
  for (const Query& q : queries) by_date.emplace(q.date, nullptr);
  for (auto& [date, snap] : by_date) {
    snap = store_get(date);
    if (snap) note_served(*snap);
  }

  queries_.inc(queries.size());
  QueryResponse response;
  response.answers.resize(queries.size());
  if (!queries.empty()) {
    // Header metadata describes the first query's date (see protocol.hpp);
    // a frame that mixes dates reads per-answer status instead.
    response.date = queries.front().date;
    if (const auto& first = by_date.find(queries.front().date)->second) {
      response.snapshot_version = first->version();
      response.degraded = first->degraded();
    }
  }

  Answer unavailable;
  unavailable.status = static_cast<uint8_t>(QueryStatus::kUnavailable);
  if (by_date.size() == 1 && by_date.begin()->second) {
    // The bulk shape — one date per frame — takes the batched data plane.
    const Snapshot& s = *by_date.begin()->second;
    auto accept = [](const Query&) { return true; };
    auto serve_chunk = [&](size_t c) {
      answer_chunk(s, queries, response.answers, c, accept, unavailable);
    };
    const size_t chunks = (queries.size() + kServeChunk - 1) / kServeChunk;
    if (pool_ && queries.size() >= kParallelThreshold) {
      pool_->parallel_for(chunks, serve_chunk);
    } else {
      for (size_t c = 0; c < chunks; ++c) serve_chunk(c);
    }
  } else {
    auto answer_one = [&](size_t i) {
      const Query& q = queries[i];
      const Snapshot* s = by_date.find(q.date)->second.get();
      if (!s) {
        response.answers[i] = unavailable;
        return;
      }
      response.answers[i] = s->lookup(q.prefix, q.fields);
    };
    if (pool_ && queries.size() >= kParallelThreshold) {
      pool_->parallel_for(queries.size(), answer_one);
    } else {
      for (size_t i = 0; i < queries.size(); ++i) answer_one(i);
    }
  }

  for (const Query& q : queries) {
    if (!by_date.find(q.date)->second) continue;
    for (uint8_t f = 0; f < kFieldCount; ++f) {
      if (q.fields & (uint8_t{1} << f)) {
        field_lookups_[f].inc();
      }
    }
  }
  return encode_query_response(response);
}

std::string Server::handle_range(std::string_view payload) {
  RangeQuery rq = decode_range_request(payload);
  if (!store_) return encode_error("range queries require a snapshot store");

  RangeResponse response;
  response.prefix = rq.prefix;
  response.fields = rq.fields;
  const int32_t begin = rq.begin.days();
  const int32_t end = rq.end.days();
  queries_.inc(static_cast<uint64_t>(end - begin) + 1);
  // One pass over the window; adjacent days that agree on every requested
  // field (and degradation bits) merge into one run, so a stable prefix
  // costs one record however long the window is.
  for (int32_t dd = begin; dd <= end; ++dd) {
    net::Date d(dd);
    Answer a;
    uint8_t degraded = 0;
    if (std::shared_ptr<const Snapshot> snap = store_get(d)) {
      note_served(*snap);
      a = snap->lookup(rq.prefix, rq.fields);
      degraded = snap->degraded();
      for (uint8_t f = 0; f < kFieldCount; ++f) {
        if (rq.fields & (uint8_t{1} << f)) {
          field_lookups_[f].inc();
        }
      }
    } else {
      a.status = static_cast<uint8_t>(QueryStatus::kUnavailable);
    }
    if (!response.runs.empty() && response.runs.back().degraded == degraded &&
        response.runs.back().answer == a) {
      ++response.runs.back().days;
    } else {
      response.runs.push_back(RangeRun{d, 1, degraded, a});
    }
  }
  return encode_range_response(response);
}

std::shared_ptr<const Snapshot> Server::store_get(net::Date d) {
  // The live head (a streaming follower's latest compaction, see publish)
  // outranks the store for its own date; history still resolves below.
  if (std::shared_ptr<const Snapshot> live = snapshot();
      live && live->date() == d) {
    return live;
  }
  std::shared_ptr<const Snapshot> snap;
  try {
    snap = store_->get(d);
  } catch (const SnapshotFormatError&) {
    // A corrupt file with no compiler to heal it: this date answers
    // kUnavailable; the store's own counters record the load failure.
  }
  if (!snap) unavailable_.inc();
  return snap;
}

void Server::note_served(const Snapshot& snap) {
  uint64_t v = snap.version();
  uint64_t cur = last_served_version_.load(std::memory_order_relaxed);
  while (cur < v && !last_served_version_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace droplens::svc
