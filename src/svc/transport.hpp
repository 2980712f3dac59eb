// Transport layer of the query service.
//
// A Service is one protocol endpoint: it knows how to delimit messages in a
// byte stream (length-prefixed frames for the binary protocol, newline-
// terminated lines for whois, head+body requests for HTTP) and how to serve
// one message. Transports move bytes and know nothing else — so the binary
// query server, the whois front, and the admin HTTP front all ride the
// same server core:
//
//   LoopbackConnection   in-process, deterministic; what tests and the
//                        service bench drive
//   EpollServer          (epoll_transport.hpp) the TCP daemon: a fixed pool
//                        of event-loop threads multiplexing nonblocking
//                        sockets, hardened for untrusted networks
//   TcpClientConnection  blocking client socket with a response framer
//
// Service implementations must be safe to call from many transport threads
// concurrently; serve() must never throw (protocol errors are responses).
//
// Robustness semantics are part of the transport contract, not an add-on:
// ListenerOptions (backlog, port), a connection cap with a typed overload
// reply, an idle timeout (which also bounds a partial message) with a typed
// timeout reply, and a TransportCounters block that makes every limit, shed
// decision, and disconnect reason visible as obs::Registry instruments.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace droplens::svc {

/// Priority class of one complete message, as reported by the Service.
/// Under overload the transport sheds kBulk first, kNormal next, and
/// kControl last — so the admin plane (/metrics), where an operator
/// watches the server defend itself, is the last thing to go dark.
enum class MessageClass : uint8_t { kBulk = 0, kNormal = 1, kControl = 2 };
inline constexpr size_t kMessageClassCount = 3;

/// Why a transport closed a connection. Each reason is a labelled series of
/// droplens_transport_disconnects_total.
enum class DisconnectReason : uint8_t {
  kPeerClosed = 0,   // orderly EOF or reset from the peer
  kMalformed,        // Service::message_size threw (unresynchronizable head)
  kIdleTimeout,      // no bytes and no pending work for idle_timeout_ms
  kReadDeadline,     // a partial message outlived idle_timeout_ms
  kWriteOverflow,    // per-connection write queue crossed its watermark
  kShed,             // load shedding closed it (no typed reply available)
  kServerStop,       // stop() tore it down
  kError,            // read/write syscall failure
};
inline constexpr size_t kDisconnectReasonCount = 8;
const char* disconnect_reason_name(DisconnectReason r);

class Service {
 public:
  virtual ~Service() = default;

  /// Size of the first complete message at the head of `buffer`; 0 when more
  /// bytes are needed. Throws ParseError when the head can never become a
  /// valid message — the transport then sends malformed_response() and
  /// closes, since the stream cannot be resynchronized.
  virtual size_t message_size(std::string_view buffer) const = 0;

  /// Serve one complete message. Must not throw; must be thread-safe.
  virtual std::string serve(std::string_view message) = 0;

  /// Serve with the request's trace context — what transports call. The
  /// default forwards to the 1-arg serve; services that want sub-stage
  /// timings on the trace (svc::Server marks decode/answer) override this
  /// and keep the 1-arg form as the plain entry point. `ctx` may be inert;
  /// every stage call on it is then a no-op.
  virtual std::string serve(std::string_view message, obs::SpanContext& ctx) {
    (void)ctx;
    return serve(message);
  }

  /// The final response for an undelimitable stream head.
  virtual std::string malformed_response(std::string_view head) = 0;

  /// Shed priority of one complete message. Default: everything kNormal.
  virtual MessageClass classify(std::string_view /*message*/) const {
    return MessageClass::kNormal;
  }

  /// The typed reply for a request refused under overload — either a shed
  /// message (passed in) or a connection refused at the cap (empty view).
  /// An empty reply tells the transport to close without writing.
  virtual std::string overload_response(std::string_view /*message*/) {
    return {};
  }

  /// The typed reply written (best effort) before a deadline/idle close.
  /// An empty reply closes silently.
  virtual std::string timeout_response() { return {}; }
};

/// A synchronous request/response channel, as used by svc::Client.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Send one message, return the service's response. Throws
  /// std::runtime_error on transport failure.
  virtual std::string roundtrip(std::string_view message) = 0;
};

/// In-process transport: a roundtrip is a direct call into the service.
/// Deterministic and allocation-light — the reference transport for tests
/// and benchmarks.
class LoopbackConnection : public Connection {
 public:
  explicit LoopbackConnection(Service& service) : service_(service) {}

  std::string roundtrip(std::string_view message) override {
    return service_.serve(message);
  }

 private:
  Service& service_;
};

/// Client-side response delimiter: same contract as Service::message_size.
using Framer = std::function<size_t(std::string_view)>;

/// Listening-socket parameters. Port 0 binds an ephemeral port (read it back
/// via port()).
struct ListenerOptions {
  uint16_t port = 0;
  /// listen(2) backlog — the kernel's queue of not-yet-accepted
  /// connections. Was a hardcoded 64; floods deeper than the backlog now
  /// get kernel-side SYN drops instead of silently tuned behavior.
  int backlog = 128;
};

/// The serving edge's limits.
struct TransportOptions {
  ListenerOptions listen;
  /// Label for this server's obs series ({listener="name"}); empty = none.
  std::string name;
  /// Hard cap on concurrently open connections; excess accepts get the
  /// service's overload_response() (best effort) and an immediate close.
  /// 0 = unlimited.
  size_t max_conns = 0;
  /// Close a connection with no activity — no bytes arriving, no write
  /// progress — after this long, with a typed timeout reply. The same
  /// bound runs from a partial message's first byte: a message must
  /// complete within it however steadily its bytes drip (the slowloris
  /// defence). 0 = never.
  uint32_t idle_timeout_ms = 0;
  /// Per-connection write-queue watermark in bytes; a reader slow enough to
  /// queue more than this is disconnected instead of ballooning memory.
  size_t max_write_buffer = 4u << 20;
  /// Load-shedding pivot: with max_inflight = M, kBulk messages are
  /// shed once in-flight work reaches max(1, M/2), kNormal at M, kControl
  /// at 2*M. In-flight = messages being served plus responses not yet
  /// flushed to the kernel. 0 disables shedding.
  size_t max_inflight = 0;
  /// Number of event-loop threads.
  unsigned event_threads = 2;
  /// Per-connection SO_SNDBUF override (0 = kernel default). Mostly for
  /// tests that need a small kernel buffer to exercise backpressure.
  int so_sndbuf = 0;
};

/// The transport's counters. Values are monotonically increasing
/// (except `open`) and mutually unsynchronized, same contract as
/// ServerStats.
struct TransportStats {
  uint64_t accepted = 0;          ///< connections accepted over the lifetime
  uint64_t overload_rejected = 0; ///< accepts refused at the connection cap
  uint64_t accept_errors = 0;     ///< transient accept() failures survived
  uint64_t open = 0;              ///< currently open connections (series)
  std::array<uint64_t, kMessageClassCount> shed{};  ///< messages shed, by class
  std::array<uint64_t, kDisconnectReasonCount> disconnects{};
};

/// Internal: the instrument block the transport records into. Each count
/// is one registry cell, bound from the installed registry (else a private
/// one), so stats() and /metrics read the same numbers. A series is keyed
/// by name and labels: two same-named listeners under one installed
/// registry share their series, and each one's stats() reports the sum.
/// The gauges move by deltas, so they sum the same way; stats().open is
/// that sum too. The connection cap counts this listener's own slots.
class TransportCounters {
 public:
  TransportCounters(const char* transport, const std::string& name);

  /// Atomically reserve a connection slot against `max_conns` (0 = no cap).
  /// Returns false — and counts an overload rejection — when full.
  bool try_accept(size_t max_conns);
  void on_close(DisconnectReason r);
  void on_accept_error() { accept_errors_.inc(); }
  void on_shed(MessageClass c) { shed_[static_cast<size_t>(c)].inc(); }
  void add_buffered(int64_t delta) { buffered_bytes_g_.add(delta); }
  void add_inflight(int64_t delta) { inflight_g_.add(delta); }

  TransportStats snapshot() const;

 private:
  std::atomic<uint64_t> open_{0};

  std::unique_ptr<obs::Registry> own_registry_;  // when none was installed
  obs::Counter accepted_;
  obs::Counter overload_rejected_;
  obs::Counter accept_errors_;
  obs::Gauge open_g_;
  obs::Gauge buffered_bytes_g_;
  obs::Gauge inflight_g_;
  std::array<obs::Counter, kMessageClassCount> shed_;
  std::array<obs::Counter, kDisconnectReasonCount> disconnects_;
};

/// Internal: a transport's hookup to the process flight recorder, resolved
/// once at server construction. The op class is the server's `name` option
/// ("binary", "whois", "admin", ...), so each listener's requests land in
/// their own trace rings. Inert — begin() returns an inert context — when
/// no recorder was installed at construction. The recorder, like the obs
/// registry, must outlive the transport.
struct TraceBinding {
  explicit TraceBinding(const std::string& name);
  obs::SpanContext begin() const {
    return recorder ? recorder->begin(op) : obs::SpanContext();
  }
  explicit operator bool() const { return recorder != nullptr; }

  obs::FlightRecorder* recorder = nullptr;
  uint16_t op = 0;
};

/// What a transport should do about a failed accept(2). Transient errors
/// (a peer that aborted mid-handshake, a signal) retry immediately;
/// fd-exhaustion retries after a backoff so the loop never spins; only a
/// shut-down listening socket is fatal.
enum class AcceptAction : uint8_t { kRetry, kRetryBackoff, kFatal };
AcceptAction accept_errno_action(int err);

/// A bound, nonblocking, listening socket. Failures anywhere, setsockopt
/// and O_NONBLOCK included, throw std::runtime_error.
struct Listener {
  int fd = -1;
  uint16_t port = 0;
};
Listener open_listener(const ListenerOptions& options);

/// Blocking client socket to an EpollServer. `framer` delimits
/// responses (svc::frame_size for the binary protocol, whois_response_size
/// for whois).
class TcpClientConnection : public Connection {
 public:
  /// Throws std::runtime_error if the connection cannot be established.
  TcpClientConnection(const std::string& host, uint16_t port, Framer framer);
  ~TcpClientConnection() override;

  TcpClientConnection(const TcpClientConnection&) = delete;
  TcpClientConnection& operator=(const TcpClientConnection&) = delete;

  std::string roundtrip(std::string_view message) override;

 private:
  int fd_ = -1;
  Framer framer_;
  std::string buffer_;
};

}  // namespace droplens::svc
