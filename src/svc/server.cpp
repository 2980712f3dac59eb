#include "svc/server.hpp"

#include <chrono>
#include <map>
#include <vector>

#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace droplens::svc {

namespace {

// Label values of droplens_svc_field_lookups_total (= Field bit positions).
constexpr const char* kFieldNames[kFieldCount] = {
    "drop", "classification", "rov", "as0", "irr", "rir", "routed"};

// Queries per Snapshot::lookup_batch call on the serving path. Chunks are
// answered into disjoint slices of the response array, so the parallel_for
// fan-out below stays byte-deterministic for any thread count; the scratch
// per chunk lives on the worker's stack.
constexpr size_t kServeChunk = 512;

// Answer queries[c*kServeChunk ...) against `s` with one batched lookup,
// written straight into the chunk's slice of `answers`.
void answer_chunk(const Snapshot& s, const std::vector<Query>& queries,
                  std::vector<Answer>& answers, size_t c) {
  const size_t begin = c * kServeChunk;
  const size_t m = std::min(queries.size() - begin, kServeChunk);
  net::Prefix prefixes[kServeChunk];
  uint8_t fields[kServeChunk];
  for (size_t j = 0; j < m; ++j) {
    prefixes[j] = queries[begin + j].prefix;
    fields[j] = queries[begin + j].fields;
  }
  s.lookup_batch(std::span<const net::Prefix>(prefixes, m),
                 std::span<const uint8_t>(fields, m),
                 std::span<Answer>(answers.data() + begin, m));
}

}  // namespace

Server::Server(SnapshotStore& store, util::ThreadPool* pool)
    : store_(store),
      pool_(pool),
      registry_(&obs::installed_or(own_registry_)) {
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

void Server::publish(std::shared_ptr<const Snapshot> snap) {
  std::lock_guard<std::mutex> lock(head_mu_);
  if (head_) reloads_.inc();
  head_ = std::move(snap);
}

std::shared_ptr<const Snapshot> Server::head() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.value();
  s.queries = queries_.value();
  s.malformed = malformed_.value();
  s.reloads = reloads_.value();
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
  const std::vector<Query> queries = decode_query_request(payload);
  // Group by date and resolve each distinct date exactly once per frame.
  // Resolution is sequential on purpose: a get() may compile (~0.6 s at
  // paper scale), and the store's per-date latches already dedup identical
  // misses across concurrent frames — fanning the gets out here would just
  // pile threads onto the same latches.
  std::map<net::Date, std::shared_ptr<const Snapshot>> by_date;
  for (const Query& q : queries) by_date.try_emplace(q.date);
  for (auto& [date, snap] : by_date) snap = store_get(date);

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

  const bool fan_out = pool_ && queries.size() >= kParallelThreshold;
  if (by_date.size() == 1 && by_date.begin()->second) {
    // The bulk shape — one date per frame — takes the batched data plane.
    const Snapshot& s = *by_date.begin()->second;
    auto serve_chunk = [&](size_t c) {
      answer_chunk(s, queries, response.answers, c);
    };
    const size_t chunks = (queries.size() + kServeChunk - 1) / kServeChunk;
    if (fan_out) {
      pool_->parallel_for(chunks, serve_chunk);
    } else {
      for (size_t c = 0; c < chunks; ++c) serve_chunk(c);
    }
  } else {
    Answer unavailable;
    unavailable.status = static_cast<uint8_t>(QueryStatus::kUnavailable);
    auto answer_one = [&](size_t i) {
      const Query& q = queries[i];
      const Snapshot* s = by_date.find(q.date)->second.get();
      response.answers[i] = s ? s->lookup(q.prefix, q.fields) : unavailable;
    };
    if (fan_out) {
      pool_->parallel_for(queries.size(), answer_one);
    } else {
      for (size_t i = 0; i < queries.size(); ++i) answer_one(i);
    }
  }

  // Count per-field lookups once per answered query; sequential and cheap.
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
  if (std::shared_ptr<const Snapshot> live = head();
      live && live->date() == d) {
    return live;
  }
  std::shared_ptr<const Snapshot> snap;
  try {
    snap = store_.get(d);
  } catch (const SnapshotFormatError&) {
    // A corrupt file with no compiler to heal it: this date answers
    // kUnavailable; the store's own counters record the load failure.
  }
  if (!snap) unavailable_.inc();
  return snap;
}

}  // namespace droplens::svc
