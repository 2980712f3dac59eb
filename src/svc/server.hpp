// Transport-agnostic server core of the query service.
//
// A Server fronts a SnapshotStore and answers for the whole study window:
// every query's wire date resolves through the live head (see publish) and
// then SnapshotStore::get(). A frame may mix dates — the batch is grouped
// by date, each distinct date resolved once (sequentially: a get() may
// compile, and the store's per-date latches already dedup across frames),
// then the lookups fan out. Dates that neither the head nor the store can
// serve answer kUnavailable. The range op answers one prefix across
// [d0, d1] in a single pass over the same resolution, run-length-encoded on
// transitions. A caller holding one compiled snapshot builds the Server
// over an empty store and publishes the snapshot as the head.
//
// Large batches fan out across the engine's util::ThreadPool with
// slot-indexed writes, keeping responses byte-identical for any thread
// count.
//
// Observability rides the obs registry: counters (frames, queries,
// malformed frames, per-field lookups, reloads, unavailable dates) and a
// log2 latency histogram are registry instruments — bound from the
// process-installed obs::Registry when one exists (so droplensd's /metrics
// page, the admin plane, shows them) and from a private registry otherwise.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/snapshot.hpp"
#include "svc/transport.hpp"

namespace droplens::util {
class ThreadPool;
}  // namespace droplens::util

namespace droplens::svc {

class SnapshotStore;

/// The counters droplensd reads in-process (its /statusz "serving" section
/// and shutdown log). Each is read once, at Server::stats(): monotonic, but
/// not mutually synchronized — writers are relaxed atomics that never pause
/// for a reader. Per-field lookups and frame latencies are registry series
/// only (droplens_svc_field_lookups_total, droplens_svc_request_latency_ns).
struct ServerStats {
  uint64_t requests = 0;   // frames handled (any type)
  uint64_t queries = 0;    // individual prefix lookups
  uint64_t malformed = 0;  // frames rejected by the decoder
  uint64_t reloads = 0;    // head publishes after the first
};

/// Hook the streaming subsystem implements (stream::Publisher) to serve the
/// live-follow ops. Declared here — and taken as an abstract pointer — so
/// svc never links stream; the payload byte layouts live in stream/wire.hpp.
class StreamFeed {
 public:
  virtual ~StreamFeed() = default;
  /// Answer one kSubscribeRequest payload with a complete response frame
  /// (normally kDeltaResponse; a kError frame is also valid). Called from
  /// transport threads concurrently — implementations must be thread-safe.
  virtual std::string handle_subscribe(std::string_view payload) = 0;
};

class Server : public Service {
 public:
  /// Every query date resolves through the head, then `store` (which must
  /// outlive the server). `pool`, when set, fans large batches out across
  /// its workers; null serves every batch on the transport thread.
  explicit Server(SnapshotStore& store, util::ThreadPool* pool = nullptr);

  /// Atomically replace the live head: a query whose date matches the
  /// head's date is answered from it directly, ahead of the store — how a
  /// streaming follower keeps "today" current between compactions while
  /// history still resolves through the store. A frame copies the head
  /// once per date it resolves, so in-flight frames finish against the head
  /// they started with; new frames see `snap`. Replacing an existing head
  /// counts as a reload.
  void publish(std::shared_ptr<const Snapshot> snap);

  /// Attach the live-follow handler (null detaches). Without one, subscribe
  /// frames answer kError. Call before serving or between frames; the
  /// pointer must outlive the server's serving threads.
  void set_stream_feed(StreamFeed* feed) {
    stream_feed_.store(feed, std::memory_order_release);
  }

  /// Current counters; see ServerStats for the consistency contract.
  ServerStats stats() const;

  /// The registry backing this server's instruments: the process-installed
  /// obs registry at construction time, else a private one.
  obs::Registry& metrics_registry() const { return *registry_; }

  // Service interface ------------------------------------------------------
  size_t message_size(std::string_view buffer) const override;
  std::string serve(std::string_view frame) override;
  /// Trace-aware serve: the same dispatch, with decode/answer stage marks
  /// on the request trace so /slowz shows where a slow frame spent its
  /// time. The 1-arg form forwards here with an inert context.
  std::string serve(std::string_view frame, obs::SpanContext& ctx) override;
  std::string malformed_response(std::string_view head) override;
  /// Shed priority by frame type: range requests are the most work per
  /// frame (kBulk, shed first); everything else is kNormal. The control
  /// class belongs to the admin plane, a listener of its own.
  MessageClass classify(std::string_view message) const override;
  /// Typed kError frame: "overloaded: connection limit" at the cap (empty
  /// message), "overloaded: request shed" for a shed frame.
  std::string overload_response(std::string_view message) override;
  /// Typed kError frame for idle/read-deadline closes.
  std::string timeout_response() override;

 private:
  /// Batches at least this large go through the thread pool.
  static constexpr size_t kParallelThreshold = 256;
  /// log2 histogram: bucket i counts frames served in [2^i, 2^(i+1)) ns.
  static constexpr size_t kLatencyBuckets = 40;

  std::string handle_queries(std::string_view payload);
  std::string handle_range(std::string_view payload);
  /// The live head (null before the first publish).
  std::shared_ptr<const Snapshot> head() const;
  /// The head for its own date, else store_.get with failures mapped to
  /// null (answers say kUnavailable).
  std::shared_ptr<const Snapshot> store_get(net::Date d);

  mutable std::mutex head_mu_;
  std::shared_ptr<const Snapshot> head_;
  SnapshotStore& store_;
  std::atomic<StreamFeed*> stream_feed_{nullptr};
  util::ThreadPool* pool_;

  std::unique_ptr<obs::Registry> own_registry_;  // when none was installed
  obs::Registry* registry_;
  obs::Counter requests_;
  obs::Counter queries_;
  obs::Counter malformed_;
  obs::Counter reloads_;
  obs::Counter unavailable_;
  std::array<obs::Counter, kFieldCount> field_lookups_;
  obs::Histogram latency_;
};

}  // namespace droplens::svc
