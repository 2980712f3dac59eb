// The hardened serving edge: an epoll transport with first-class
// robustness semantics.
//
// EpollServer is a small fixed pool of event-loop threads multiplexing
// nonblocking sockets; no connection ever gets a thread of its own. Every
// thread owns a private epoll instance plus a shard of the connections; the
// shared listening socket sits in every epoll with EPOLLEXCLUSIVE, so
// accepts spread across the pool without a handoff queue and each
// connection is confined to the thread that accepted it (no cross-thread
// connection state, which is what keeps the loop TSan-clean). A thread
// that just served polls for one client turnaround before it blocks, so a
// closed-loop client's next request skips a cross-CPU wakeup; an idle
// thread blocks at once.
//
// Robustness is the point, not an afterthought:
//
//   connection cap    accepts beyond max_conns get the service's typed
//                     overload reply (best effort) and an immediate close —
//                     never an unbounded fd, never a thread
//   deadlines         a timer wheel per thread drives the idle timeout:
//                     quiet connections and stalled readers are closed,
//                     and a partial message must complete within the same
//                     bound from its first byte (kills slowloris against
//                     the binary, whois, and HTTP frontends alike)
//   backpressure      responses are written straight from the serve()
//                     buffer; whatever the kernel won't take queues in a
//                     bounded per-connection list, and a reader slow enough
//                     to cross max_write_buffer is disconnected instead of
//                     ballooning memory
//   load shedding     in-flight work (messages being served + responses not
//                     yet flushed) crossing max_inflight flips the server to
//                     degraded service: bulk ops (range) shed first at M/2,
//                     normal queries at M, control messages (the admin
//                     plane) last at 2*M — so the observability plane stays
//                     up while the server defends itself
//
// Every limit, shed decision, timeout, and disconnect reason is a
// TransportCounters instrument, so /metrics shows the defense in action.
//
// The per-connection state machine (documented in DESIGN.md §11):
//
//            ┌────────── readable ──────────┐
//   [open] ──┤ read → buffer → delimit      │
//            │   complete → classify        │
//            │     shed? → typed reply      │
//            │     else  → serve → write    │
//            │   partial  → arm deadline    │
//            └── writable → flush queue ────┘
//   close paths: peer EOF/error · malformed head · idle/partial timeout
//                · write-queue overflow · shed (no typed reply) · stop()
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/transport.hpp"

namespace droplens::svc {

/// Hashed timer wheel: O(1) arm/cancel, O(due) expiry per advance. Time is
/// caller-supplied milliseconds, which keeps the wheel deterministic and
/// unit-testable without a clock. One timer per id; re-arming replaces.
/// Entries whose deadline lies beyond one wheel revolution stay bucketed in
/// their slot and are re-examined each revolution (lazy cascading).
class TimerWheel {
 public:
  explicit TimerWheel(uint64_t now_ms, uint32_t tick_ms, size_t slots = 256);

  /// Arm (or re-arm) timer `id` to fire once `now >= deadline_ms`.
  void arm(uint64_t id, uint64_t deadline_ms);
  void cancel(uint64_t id);

  /// Advance to `now_ms`, appending every due id to `expired` in
  /// (deadline, id) order. Monotonic: a `now_ms` earlier than the cursor is
  /// treated as the cursor.
  void advance(uint64_t now_ms, std::vector<uint64_t>& expired);

  /// Milliseconds until the next tick boundary — the natural epoll_wait
  /// timeout. Returns `idle_hint` when nothing is armed.
  uint64_t next_wake_delay(uint64_t now_ms, uint64_t idle_hint = 1000) const;

  size_t armed() const { return armed_.size(); }
  uint32_t tick_ms() const { return tick_ms_; }

 private:
  struct Entry {
    uint64_t id;
    uint64_t deadline;
  };

  uint32_t tick_ms_;
  uint64_t cursor_;  // last fully-processed tick index
  std::vector<std::vector<Entry>> slots_;
  std::unordered_map<uint64_t, uint64_t> armed_;  // id -> live deadline
};

/// Epoll daemon on 127.0.0.1. Port 0 binds an ephemeral port. Runs any
/// Service unchanged; see the file comment for the robustness contract.
class EpollServer {
 public:
  /// Throws std::runtime_error if the socket cannot be bound or the epoll
  /// machinery cannot be set up.
  EpollServer(Service& service, const TransportOptions& options);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  uint16_t port() const { return port_; }
  /// Stop accepting, shut down open connections, join all threads.
  /// Idempotent; also run by the destructor.
  void stop();
  TransportStats stats() const { return counters_.snapshot(); }

  /// Current in-flight work (messages being served + unflushed responses).
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Test hook: pretend this much extra work is in flight, so shed
  /// thresholds can be crossed deterministically without racing real load.
  void set_inflight_bias_for_tests(size_t bias) {
    inflight_bias_.store(bias, std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;                // unparsed request bytes
    std::deque<std::string> out;   // queued response bytes, head first
    size_t out_head_off = 0;       // bytes of out.front() already written
    size_t out_bytes = 0;          // total queued bytes (watermark basis)
    size_t unflushed = 0;          // responses counted in inflight_
    uint64_t last_activity = 0;    // ms; read progress resets it
    uint64_t partial_since = 0;    // ms; 0 = no incomplete message pending
    uint64_t write_pending_since = 0;  // ms; 0 = queue empty
    uint32_t registered_events = 0;    // epoll mask currently registered
    bool closing_after_flush = false;
    DisconnectReason flush_close_reason = DisconnectReason::kPeerClosed;
    /// The request trace parked on this connection between callbacks. One
    /// active trace at a time: accept/read stages accrue here, serve/flush
    /// run under it, and the flush completion (or a close path) finishes
    /// it. Destroying the Conn with an armed trace submits "abandoned".
    obs::SpanContext trace;
    bool trace_reading = false;  // "read" stage open for the current trace
    bool trace_served = false;   // trace is past serve, waiting on flush
  };

  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: stop() pokes it
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::unique_ptr<TimerWheel> wheel;
    std::thread thread;
  };

  void loop(Worker& w);
  void accept_ready(Worker& w, uint64_t now);
  void handle_io(Worker& w, Conn& c, uint32_t events, uint64_t now);
  /// Serve/shed every complete buffered message. Returns false when the
  /// connection was closed along the way.
  bool drain_messages(Worker& w, Conn& c, uint64_t now);
  /// Append a response and push as much as the kernel will take right now.
  /// Returns false when the connection was closed (overflow / dead peer).
  bool enqueue(Worker& w, Conn& c, std::string&& bytes, uint64_t now);
  bool flush_out(Worker& w, Conn& c, uint64_t now);
  void update_epoll(Worker& w, Conn& c);
  /// Queue `reply` (may be empty) and close once it drains.
  void close_after_flush(Worker& w, Conn& c, std::string&& reply,
                         DisconnectReason reason, uint64_t now);
  void close_conn(Worker& w, Conn& c, DisconnectReason reason);
  /// Re-arm the connection's single wheel timer to its earliest deadline.
  void rearm_timer(Worker& w, Conn& c);
  void expire_timers(Worker& w, uint64_t now);
  bool should_shed(MessageClass cls) const;
  /// Finish the connection's active trace (no-op when inert) and reset the
  /// per-request trace flags.
  void finish_trace(Conn& c, std::string_view outcome);

  Service& service_;
  TransportOptions options_;
  mutable TransportCounters counters_;
  TraceBinding trace_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> inflight_bias_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace droplens::svc
