// The hardened serving edge: timer-wheel semantics, accept-errno policy,
// connection caps with typed refusals, the idle timeout and the partial
// messages it also bounds (the slowloris regression, on all three protocol
// fronts), write-queue backpressure and the flush grace for a peer that
// never reads its eviction notice, shed-priority ordering, stats() equal
// to the listener's registry series, hostile-client drills via
// sim::NetFaultInjector, and answers over TCP byte-identical to their
// in-process references.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/drop_index.hpp"
#include "core/engine.hpp"
#include "core/snapshot_cache.hpp"
#include "irr/whois.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "sim/net_fault_injector.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/admin_http.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "svc/transport.hpp"
#include "svc/whois_service.hpp"
#include "util/error.hpp"

namespace droplens {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// TimerWheel

TEST(TimerWheel, FiresInDeadlineThenIdOrder) {
  svc::TimerWheel wheel(/*now_ms=*/1000, /*tick_ms=*/10);
  wheel.arm(7, 1045);
  wheel.arm(3, 1025);
  wheel.arm(9, 1025);  // same deadline as 3: id breaks the tie
  wheel.arm(1, 1035);
  EXPECT_EQ(wheel.armed(), 4u);

  std::vector<uint64_t> expired;
  wheel.advance(1010, expired);
  EXPECT_TRUE(expired.empty());  // nothing due yet
  wheel.advance(1050, expired);
  EXPECT_EQ(expired, (std::vector<uint64_t>{3, 9, 1, 7}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, CancelPreventsExpiryAndRearmReplaces) {
  svc::TimerWheel wheel(0, 10);
  wheel.arm(1, 20);
  wheel.cancel(1);
  std::vector<uint64_t> expired;
  wheel.advance(100, expired);
  EXPECT_TRUE(expired.empty());

  wheel.arm(2, 30);
  wheel.arm(2, 500);  // re-arm pushes the deadline out; the old slot entry
                      // is stale and must not fire
  wheel.advance(200, expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(510, expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{2});
}

TEST(TimerWheel, DeadlineBeyondOneRevolutionWaitsFullTerm) {
  // 8 slots x 1 ms tick: one revolution is 8 ms. A 20 ms deadline shares a
  // slot with near-term ticks but must survive two revolutions untouched.
  svc::TimerWheel wheel(0, /*tick_ms=*/1, /*slots=*/8);
  wheel.arm(1, 20);
  std::vector<uint64_t> expired;
  wheel.advance(7, expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(19, expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(20, expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{1});
}

TEST(TimerWheel, PastDeadlineStillFires) {
  svc::TimerWheel wheel(1000, 10);
  wheel.arm(5, 900);  // already overdue when armed
  std::vector<uint64_t> expired;
  wheel.advance(1011, expired);  // next tick after the cursor
  EXPECT_EQ(expired, std::vector<uint64_t>{5});
}

TEST(TimerWheel, NextWakeDelayTracksTickBoundary) {
  svc::TimerWheel wheel(1000, 10);
  EXPECT_EQ(wheel.next_wake_delay(1003, /*idle_hint=*/250), 250u);  // nothing armed
  wheel.arm(1, 1100);
  const uint64_t delay = wheel.next_wake_delay(1003, 250);
  EXPECT_GT(delay, 0u);
  EXPECT_LE(delay, 10u);  // never sleeps past the next tick while armed
}

// ---------------------------------------------------------------------------
// accept(2) errno policy

TEST(AcceptErrno, ClassifiesTransientBackoffAndFatal) {
  EXPECT_EQ(svc::accept_errno_action(EINTR), svc::AcceptAction::kRetry);
  EXPECT_EQ(svc::accept_errno_action(ECONNABORTED), svc::AcceptAction::kRetry);
  EXPECT_EQ(svc::accept_errno_action(EAGAIN), svc::AcceptAction::kRetry);
  EXPECT_EQ(svc::accept_errno_action(EMFILE),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::accept_errno_action(ENFILE),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::accept_errno_action(ENOBUFS),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::accept_errno_action(EBADF), svc::AcceptAction::kFatal);
  EXPECT_EQ(svc::accept_errno_action(EINVAL), svc::AcceptAction::kFatal);
}

// ---------------------------------------------------------------------------
// Test scaffolding

/// Newline-delimited echo protocol with every robustness hook typed, so the
/// transport's refusals are observable as distinct byte strings. "big N"
/// answers with N raw bytes (for backpressure tests); a "bulk"/"ctl" prefix
/// sets the shed class.
class EchoService : public svc::Service {
 public:
  static constexpr size_t kMaxLine = 64;

  size_t message_size(std::string_view buffer) const override {
    size_t pos = buffer.find('\n');
    if (pos == std::string_view::npos) {
      if (buffer.size() > kMaxLine) throw ParseError("echo: line too long");
      return 0;
    }
    return pos + 1;
  }
  std::string serve(std::string_view message) override {
    std::string_view line = message.substr(0, message.size() - 1);
    if (line.rfind("big ", 0) == 0) {
      size_t n = 0;
      for (char c : line.substr(4)) n = n * 10 + static_cast<size_t>(c - '0');
      return std::string(n, 'x');
    }
    served_.fetch_add(1, std::memory_order_relaxed);
    return "echo:" + std::string(line) + "\n";
  }
  std::string malformed_response(std::string_view) override { return "bad\n"; }
  svc::MessageClass classify(std::string_view message) const override {
    if (message.rfind("bulk", 0) == 0) return svc::MessageClass::kBulk;
    if (message.rfind("ctl", 0) == 0) return svc::MessageClass::kControl;
    return svc::MessageClass::kNormal;
  }
  std::string overload_response(std::string_view message) override {
    return message.empty() ? "busy-conn\n" : "shed\n";
  }
  std::string timeout_response() override { return "too-slow\n"; }

  size_t served() const { return served_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> served_{0};
};

size_t line_framer(std::string_view buffer) {
  size_t pos = buffer.find('\n');
  return pos == std::string_view::npos ? 0 : pos + 1;
}

/// Raw client socket; `rcvbuf` shrinks the receive window before connect so
/// backpressure tests control how much the kernel absorbs.
int raw_connect(uint16_t port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool raw_send(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Read until the server closes (or `timeout_ms` passes). Returns the bytes
/// received; `saw_eof` reports whether the close actually arrived.
std::string raw_read_to_eof(int fd, int timeout_ms, bool* saw_eof = nullptr) {
  std::string out;
  if (saw_eof) *saw_eof = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char buf[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    int r = ::poll(&p, 1, 50);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0 || (n < 0 && errno != EINTR)) {
      if (saw_eof) *saw_eof = (n == 0 || errno == ECONNRESET);
      break;
    }
  }
  return out;
}

/// Poll `cond` until it holds or `timeout_ms` passes — for assertions
/// against server-side counters that a worker thread updates.
template <typename F>
bool eventually(F cond, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return cond();
}

size_t reason_count(const svc::TransportStats& s, svc::DisconnectReason r) {
  return s.disconnects[static_cast<size_t>(r)];
}

// ---------------------------------------------------------------------------
// Caps, deadlines and malformed input, on every protocol front

TEST(EpollEdge, ConnectionCapRejectsWithTypedReply) {
  EchoService service;
  svc::TransportOptions o;
  o.max_conns = 1;
  svc::EpollServer server(service, o);

  svc::TcpClientConnection inside("127.0.0.1", server.port(), line_framer);
  EXPECT_EQ(inside.roundtrip("hi\n"), "echo:hi\n");

  // The second connection is over the cap: typed refusal, then close.
  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  bool eof = false;
  EXPECT_EQ(raw_read_to_eof(fd, 3000, &eof), "busy-conn\n");
  EXPECT_TRUE(eof);
  ::close(fd);

  // The in-cap connection is unharmed.
  EXPECT_EQ(inside.roundtrip("still here\n"), "echo:still here\n");
  svc::TransportStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.overload_rejected, 1u);
  EXPECT_EQ(stats.open, 1u);
}

TEST(EpollEdge, IdleConnectionGetsTimeoutReplyThenClose) {
  EchoService service;
  svc::TransportOptions o;
  o.idle_timeout_ms = 150;
  svc::EpollServer server(service, o);

  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  bool eof = false;
  EXPECT_EQ(raw_read_to_eof(fd, 5000, &eof), "too-slow\n");
  EXPECT_TRUE(eof);
  ::close(fd);
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(), svc::DisconnectReason::kIdleTimeout) ==
           1;
  }));
}

TEST(EpollEdge, MalformedHeadGetsTypedReplyThenClose) {
  EchoService service;
  svc::EpollServer server(service, svc::TransportOptions{});

  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, std::string(EchoService::kMaxLine + 20, 'z')));
  bool eof = false;
  EXPECT_EQ(raw_read_to_eof(fd, 5000, &eof), "bad\n");
  EXPECT_TRUE(eof);
  ::close(fd);
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(), svc::DisconnectReason::kMalformed) ==
           1;
  }));
}

// The slowloris regression, against the whois front: a byte-at-a-time
// client must be disconnected with the typed F line once its partial line
// is older than the idle timeout, no matter how steadily it drips. Each
// drip is activity, so an idle bound counted from the last byte alone
// would never cut it.
TEST(EpollEdge, WhoisSlowlorisIsCutAtReadDeadline) {
  irr::Database db;
  irr::WhoisServer whois(db, net::Date::parse("2021-01-01"));
  svc::WhoisService service(whois);
  svc::TransportOptions o;
  o.idle_timeout_ms = 150;
  svc::EpollServer server(service, o);

  sim::NetFaultInjector::Config config;
  config.port = server.port();
  config.seed = 42;
  config.message = "!gAS64500\n";
  config.clients = 4;
  config.drip_delay_ms = 80;  // ~800 ms per message, deadline at 150 ms
  config.duration_ms = 8000;
  sim::NetFaultInjector::Report report =
      sim::NetFaultInjector::run(sim::NetFaultInjector::Profile::kSlowDrip,
                                 config);
  EXPECT_EQ(report.connected, 4u);
  EXPECT_EQ(report.closed_by_server, 4u);
  EXPECT_EQ(report.gave_up, 0u);
  EXPECT_GT(report.bytes_received, 0u);  // the typed F replies
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(),
                        svc::DisconnectReason::kReadDeadline) == 4;
  }));
}

TEST(EpollEdge, WhoisOverlongLineIsRefusedNotBuffered) {
  irr::Database db;
  irr::WhoisServer whois(db, net::Date::parse("2021-01-01"));
  svc::WhoisService service(whois);
  svc::EpollServer server(service, svc::TransportOptions{});

  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, std::string(svc::WhoisService::kMaxLine + 10, 'x')));
  bool eof = false;
  EXPECT_EQ(raw_read_to_eof(fd, 5000, &eof), "F line too long\n");
  EXPECT_TRUE(eof);
  ::close(fd);
}

TEST(EpollEdge, HttpSlowlorisGets408) {
  obs::Registry registry;
  svc::AdminHttpService service(registry);
  svc::TransportOptions o;
  o.idle_timeout_ms = 150;
  svc::EpollServer server(service, o);

  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, "GET /metr"));  // head never completes
  bool eof = false;
  std::string reply = raw_read_to_eof(fd, 5000, &eof);
  EXPECT_EQ(reply.rfind("HTTP/1.1 408", 0), 0u) << reply;
  EXPECT_TRUE(eof);
  ::close(fd);
}

TEST(EpollEdge, HttpOversizedHeadGets431) {
  obs::Registry registry;
  svc::AdminHttpService service(registry);
  svc::EpollServer server(service, svc::TransportOptions{});

  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  std::string head = "GET /metrics HTTP/1.1\r\nX-Filler: ";
  head.append(svc::AdminHttpService::kMaxHead, 'a');  // never terminated
  ASSERT_TRUE(raw_send(fd, head));
  bool eof = false;
  std::string reply = raw_read_to_eof(fd, 5000, &eof);
  EXPECT_EQ(reply.rfind("HTTP/1.1 431", 0), 0u) << reply;
  EXPECT_TRUE(eof);
  ::close(fd);
}

TEST(EpollEdge, HttpOversizedBodyGets413) {
  obs::Registry registry;
  svc::AdminHttpService service(registry);
  svc::EpollServer server(service, svc::TransportOptions{});

  int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd,
                       "POST /metrics HTTP/1.1\r\nContent-Length: "
                       "1000000\r\n\r\n"));
  bool eof = false;
  std::string reply = raw_read_to_eof(fd, 5000, &eof);
  EXPECT_EQ(reply.rfind("HTTP/1.1 413", 0), 0u) << reply;
  EXPECT_TRUE(eof);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Backpressure, shedding, floods

TEST(EpollEdge, WriteQueueWatermarkDisconnectsSlowReader) {
  EchoService service;
  svc::TransportOptions o;
  o.max_write_buffer = 64 * 1024;
  o.so_sndbuf = 4096;  // tiny kernel buffer: the queue grows in userspace
  svc::EpollServer server(service, o);

  // A 256 KiB response to a client that never reads: the kernel absorbs a
  // few tens of KiB, the rest crosses the watermark immediately.
  int fd = raw_connect(server.port(), /*rcvbuf=*/8192);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, "big 262144\n"));
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(),
                        svc::DisconnectReason::kWriteOverflow) == 1;
  }));
  ::close(fd);
}

TEST(EpollEdge, NeverReadingClientIsBounded) {
  EchoService service;
  svc::TransportOptions o;
  o.max_write_buffer = 64 * 1024;
  o.so_sndbuf = 4096;
  svc::EpollServer server(service, o);

  sim::NetFaultInjector::Config config;
  config.port = server.port();
  config.seed = 7;
  config.message = "big 262144\n";
  config.clients = 3;
  config.repeats = 2;
  config.duration_ms = 8000;
  sim::NetFaultInjector::Report report = sim::NetFaultInjector::run(
      sim::NetFaultInjector::Profile::kNeverRead, config);
  EXPECT_EQ(report.connected, 3u);
  EXPECT_EQ(report.closed_by_server, 3u);
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(),
                        svc::DisconnectReason::kWriteOverflow) == 3;
  }));
}

// An idle eviction queues its timeout reply behind a response the peer never
// reads, and the queue stays under the default 4 MiB watermark, so overflow
// never fires. The flush grace, counted from when the queue stalled, is the
// one bound left: the close comes about 1 s after the send, not at the idle
// timeout and not never.
TEST(EpollEdge, PeerThatNeverReadsItsEvictionNoticeIsClosedAfterGrace) {
  EchoService service;
  svc::TransportOptions o;
  o.idle_timeout_ms = 100;
  o.so_sndbuf = 4096;
  svc::EpollServer server(service, o);

  int fd = raw_connect(server.port(), /*rcvbuf=*/8192);
  ASSERT_GE(fd, 0);
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(raw_send(fd, "big 262144\n"));
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(),
                        svc::DisconnectReason::kIdleTimeout) == 1;
  }));
  EXPECT_GE(std::chrono::steady_clock::now() - sent, 900ms);
  svc::TransportStats stats = server.stats();
  EXPECT_EQ(reason_count(stats, svc::DisconnectReason::kIdleTimeout), 1u);
  EXPECT_EQ(reason_count(stats, svc::DisconnectReason::kWriteOverflow), 0u);
  EXPECT_EQ(stats.open, 0u);
  ::close(fd);
}

TEST(EpollEdge, ShedsLowestPriorityFirstServesControlLast) {
  EchoService service;
  svc::TransportOptions o;
  o.max_inflight = 4;  // bulk sheds at load >= 2, normal at 4, control at 8
  svc::EpollServer server(service, o);
  svc::TcpClientConnection client("127.0.0.1", server.port(), line_framer);

  // Unloaded: every class is served.
  EXPECT_EQ(client.roundtrip("bulk scan\n"), "echo:bulk scan\n");
  EXPECT_EQ(client.roundtrip("query\n"), "echo:query\n");
  EXPECT_EQ(client.roundtrip("ctl stats\n"), "echo:ctl stats\n");

  // Load at M/2: bulk sheds, queries and control still flow.
  server.set_inflight_bias_for_tests(2);
  EXPECT_EQ(client.roundtrip("bulk scan\n"), "shed\n");
  EXPECT_EQ(client.roundtrip("query\n"), "echo:query\n");
  EXPECT_EQ(client.roundtrip("ctl stats\n"), "echo:ctl stats\n");

  // Load at M: queries shed too; the observability plane stays up.
  server.set_inflight_bias_for_tests(4);
  EXPECT_EQ(client.roundtrip("bulk scan\n"), "shed\n");
  EXPECT_EQ(client.roundtrip("query\n"), "shed\n");
  EXPECT_EQ(client.roundtrip("ctl stats\n"), "echo:ctl stats\n");

  // Load at 2M: even control goes dark.
  server.set_inflight_bias_for_tests(8);
  EXPECT_EQ(client.roundtrip("ctl stats\n"), "shed\n");

  svc::TransportStats stats = server.stats();
  EXPECT_EQ(stats.shed[static_cast<size_t>(svc::MessageClass::kBulk)], 2u);
  EXPECT_EQ(stats.shed[static_cast<size_t>(svc::MessageClass::kNormal)], 1u);
  EXPECT_EQ(stats.shed[static_cast<size_t>(svc::MessageClass::kControl)], 1u);

  // Back below every threshold: full service resumes on the same connection.
  server.set_inflight_bias_for_tests(0);
  EXPECT_EQ(client.roundtrip("bulk scan\n"), "echo:bulk scan\n");
}

TEST(EpollEdge, ConnectFloodIsCappedEvictedAndRecoversCleanly) {
  EchoService service;
  svc::TransportOptions o;
  o.max_conns = 4;
  o.idle_timeout_ms = 200;  // the held herd is evicted, not kept
  svc::EpollServer server(service, o);

  sim::NetFaultInjector::Config config;
  config.port = server.port();
  config.clients = 16;
  config.duration_ms = 4000;
  sim::NetFaultInjector::Report report = sim::NetFaultInjector::run(
      sim::NetFaultInjector::Profile::kConnectFlood, config);
  EXPECT_EQ(report.connected, 16u);
  EXPECT_EQ(report.closed_by_server, 16u);  // 12 refused + 4 idle-evicted
  EXPECT_GT(report.bytes_received, 0u);     // typed refusals went out

  svc::TransportStats stats = server.stats();
  EXPECT_EQ(stats.overload_rejected, 12u);
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(reason_count(stats, svc::DisconnectReason::kIdleTimeout), 4u);

  // After the flood subsides a healthy client is served normally.
  svc::TcpClientConnection client("127.0.0.1", server.port(), line_framer);
  EXPECT_EQ(client.roundtrip("healthy\n"), "echo:healthy\n");
  EXPECT_EQ(server.stats().accepted, 5u);
}

TEST(EpollEdge, MidFrameDisconnectsAreCountedAsPeerClosed) {
  EchoService service;
  svc::EpollServer server(service, svc::TransportOptions{});

  sim::NetFaultInjector::Config config;
  config.port = server.port();
  config.seed = 11;
  config.message = "a message that is cut somewhere in the middle\n";
  config.clients = 6;
  config.duration_ms = 5000;
  sim::NetFaultInjector::Report report = sim::NetFaultInjector::run(
      sim::NetFaultInjector::Profile::kMidFrameDisconnect, config);
  EXPECT_EQ(report.connected, 6u);
  EXPECT_TRUE(eventually([&] {
    return reason_count(server.stats(),
                        svc::DisconnectReason::kPeerClosed) == 6;
  }));
  EXPECT_EQ(server.stats().open, 0u);
}

TEST(EpollEdge, StopWhileConnectionsAreOpenCountsServerStop) {
  EchoService service;
  auto server =
      std::make_unique<svc::EpollServer>(service, svc::TransportOptions{});
  int fd = raw_connect(server->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(eventually([&] { return server->stats().open == 1; }));
  server->stop();
  svc::TransportStats stats = server->stats();
  EXPECT_EQ(reason_count(stats, svc::DisconnectReason::kServerStop), 1u);
  EXPECT_EQ(stats.open, 0u);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Poll before sleeping: an event thread polls for kSpinUs after its last
// socket event, then blocks. These bound that polling by the process's CPU
// time over a silence; a thread that polled throughout would use about all
// of it.

std::chrono::microseconds process_cpu() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  auto span = [](const timeval& t) {
    return std::chrono::seconds(t.tv_sec) +
           std::chrono::microseconds(t.tv_usec);
  };
  return span(u.ru_utime) + span(u.ru_stime);
}

constexpr auto kSilence = 500ms;

std::chrono::microseconds cpu_over_silence() {
  const auto before = process_cpu();
  std::this_thread::sleep_for(kSilence);
  return process_cpu() - before;
}

TEST(EpollEdge, IdleListenerBlocksInsteadOfPolling) {
  EchoService service;
  svc::EpollServer server(service, svc::TransportOptions{});
  svc::TcpClientConnection client("127.0.0.1", server.port(), line_framer);
  EXPECT_EQ(client.roundtrip("hi\n"), "echo:hi\n");
  // The connection stays open and says nothing more.
  const auto used = cpu_over_silence();
  EXPECT_LT(used, kSilence / 5) << used.count() << " us of CPU while idle";
}

TEST(EpollEdge, PollingStopsByItselfAfterABurst) {
  EchoService service;
  svc::EpollServer server(service, svc::TransportOptions{});
  svc::TcpClientConnection client("127.0.0.1", server.port(), line_framer);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(client.roundtrip("burst\n"), "echo:burst\n");
  }
  const auto used = cpu_over_silence();
  EXPECT_LT(used, kSilence / 5) << used.count() << " us of CPU after a burst";
}

// ---------------------------------------------------------------------------
// One reader per counter: stats() reads the listener's registry series

/// Label values of droplens_transport_shed_total, by MessageClass.
constexpr const char* kClasses[] = {"bulk", "normal", "control"};

/// Every TransportStats field on one line, so a mismatch names the field.
std::string show(const svc::TransportStats& s) {
  std::string out = "accepted=" + std::to_string(s.accepted) +
                    " overload_rejected=" +
                    std::to_string(s.overload_rejected) +
                    " accept_errors=" + std::to_string(s.accept_errors) +
                    " open=" + std::to_string(s.open);
  for (size_t i = 0; i < svc::kMessageClassCount; ++i) {
    out += std::string(" shed.") + kClasses[i] + "=" +
           std::to_string(s.shed[i]);
  }
  for (size_t i = 0; i < svc::kDisconnectReasonCount; ++i) {
    out += std::string(" ") +
           svc::disconnect_reason_name(static_cast<svc::DisconnectReason>(i)) +
           "=" + std::to_string(s.disconnects[i]);
  }
  return out;
}

/// The droplens_transport_* series of epoll listener `name` in `reg`.
svc::TransportStats series_of(obs::Registry& reg, const std::string& name) {
  auto labels = [&](const char* key = nullptr, const char* value = nullptr) {
    obs::Labels l{{"transport", "epoll"}, {"listener", name}};
    if (key) l.emplace_back(key, value);
    return l;
  };
  svc::TransportStats s;
  s.accepted = reg.counter("droplens_transport_accepted_total", labels())
                   .value();
  s.overload_rejected =
      reg.counter("droplens_transport_overload_rejects_total", labels())
          .value();
  s.accept_errors =
      reg.counter("droplens_transport_accept_errors_total", labels()).value();
  s.open = static_cast<uint64_t>(
      reg.gauge("droplens_transport_open_connections", labels()).value());
  for (size_t i = 0; i < svc::kMessageClassCount; ++i) {
    s.shed[i] = reg.counter("droplens_transport_shed_total",
                            labels("class", kClasses[i]))
                    .value();
  }
  for (size_t i = 0; i < svc::kDisconnectReasonCount; ++i) {
    const char* reason =
        svc::disconnect_reason_name(static_cast<svc::DisconnectReason>(i));
    s.disconnects[i] = reg.counter("droplens_transport_disconnects_total",
                                   labels("reason", reason))
                           .value();
  }
  return s;
}

/// One accept, one refusal at the cap (max_conns 1), one bulk shed, a peer
/// close, a second accept and a close at stop(). Returns the stats after.
svc::TransportStats drive_accepts_refusal_shed_and_closes(
    svc::EpollServer& server) {
  {
    svc::TcpClientConnection first("127.0.0.1", server.port(), line_framer);
    EXPECT_EQ(first.roundtrip("hi\n"), "echo:hi\n");
    int fd = raw_connect(server.port());
    EXPECT_GE(fd, 0);
    EXPECT_EQ(raw_read_to_eof(fd, 3000), "busy-conn\n");
    ::close(fd);
    server.set_inflight_bias_for_tests(2);  // bulk sheds at max_inflight/2
    EXPECT_EQ(first.roundtrip("bulk scan\n"), "shed\n");
    server.set_inflight_bias_for_tests(0);
  }
  EXPECT_TRUE(eventually([&] { return server.stats().open == 0; }));
  svc::TcpClientConnection second("127.0.0.1", server.port(), line_framer);
  EXPECT_EQ(second.roundtrip("again\n"), "echo:again\n");
  server.stop();
  return server.stats();
}

TEST(EpollEdge, StatsReadTheListenersSeries) {
  svc::TransportOptions o;
  o.name = "query";
  o.max_conns = 1;
  o.max_inflight = 4;
  svc::TransportStats expected;
  expected.accepted = 2;
  expected.overload_rejected = 1;
  expected.shed[static_cast<size_t>(svc::MessageClass::kBulk)] = 1;
  expected.disconnects[static_cast<size_t>(
      svc::DisconnectReason::kPeerClosed)] = 1;
  expected.disconnects[static_cast<size_t>(
      svc::DisconnectReason::kServerStop)] = 1;

  {
    obs::Registry reg;
    obs::ScopedRegistry scoped(reg);
    EchoService service;
    svc::EpollServer server(service, o);
    const svc::TransportStats stats =
        drive_accepts_refusal_shed_and_closes(server);
    EXPECT_EQ(show(stats), show(expected));
    EXPECT_EQ(show(series_of(reg, "query")), show(stats));

    // A series is keyed by name and labels: a second listener of the same
    // name under this registry counts into the same cells.
    svc::TransportOptions slow = o;
    slow.so_sndbuf = 4096;  // an unread response stays queued, in flight
    svc::EpollServer twin(service, slow);
    {
      svc::TcpClientConnection client("127.0.0.1", twin.port(), line_framer);
      EXPECT_EQ(client.roundtrip("twin\n"), "echo:twin\n");
      EXPECT_EQ(twin.stats().accepted, 3u);
      EXPECT_EQ(server.stats().accepted, 3u);
    }
    EXPECT_TRUE(eventually([&] { return twin.stats().open == 0; }));

    // The gauges move by deltas, so they sum as well. One connection on
    // each of two live twins, each holding a response its peer does not
    // read: the series, and both listeners' stats(), read two.
    svc::EpollServer other(service, slow);
    auto inflight = [&] {
      return reg
          .gauge("droplens_transport_inflight",
                 {{"transport", "epoll"}, {"listener", "query"}})
          .value();
    };
    std::vector<int> peers;
    for (const svc::EpollServer* listener : {&twin, &other}) {
      peers.push_back(raw_connect(listener->port(), /*rcvbuf=*/8192));
      ASSERT_GE(peers.back(), 0);
      ASSERT_TRUE(raw_send(peers.back(), "big 262144\n"));
    }
    EXPECT_TRUE(eventually([&] {
      return inflight() == 2 && series_of(reg, "query").open == 2;
    })) << "in-flight gauge " << inflight() << ", open gauge "
        << series_of(reg, "query").open;
    EXPECT_EQ(twin.stats().open, 2u);
    EXPECT_EQ(other.stats().open, 2u);
    EXPECT_EQ(show(twin.stats()), show(series_of(reg, "query")));
    for (int fd : peers) ::close(fd);
    EXPECT_TRUE(eventually(
        [&] { return twin.stats().open == 0 && inflight() == 0; }));
  }

  // No registry installed: the listener binds a private one and stats()
  // counts the same traffic.
  EchoService service;
  svc::EpollServer server(service, o);
  EXPECT_EQ(show(drive_accepts_refusal_shed_and_closes(server)),
            show(expected));
}

// ---------------------------------------------------------------------------
// Wire fidelity: same Service, byte-identical to the in-process reference

class TransportWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::ScenarioConfig(sim::ScenarioConfig::small());
    world_ = sim::generate(*config_).release();
    cache_ = new core::SnapshotCache(world_->registry, world_->fleet,
                                     world_->roas, world_->drop, &world_->irr);
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete world_;
    delete config_;
  }
  core::Study study() const {
    core::Study s{world_->registry,      world_->fleet, world_->irr,
                  world_->roas,          world_->drop,  world_->sbl,
                  config_->window_begin, config_->window_end};
    s.snapshots = cache_;
    return s;
  }
  static sim::ScenarioConfig* config_;
  static sim::World* world_;
  static core::SnapshotCache* cache_;
};

sim::ScenarioConfig* TransportWorld::config_ = nullptr;
sim::World* TransportWorld::world_ = nullptr;
core::SnapshotCache* TransportWorld::cache_ = nullptr;

TEST_F(TransportWorld, BinaryAnswersAreByteIdenticalAcrossTransports) {
  core::Study s = study();
  core::DropIndex index = core::DropIndex::build(s);
  net::Date d = config_->window_begin + 60;
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(svc::compile_snapshot(s, index, d, 7));

  svc::EpollServer epoll_srv(server, svc::TransportOptions{});

  std::vector<svc::Query> batch;
  for (const core::DropEntry& e : index.entries()) {
    batch.push_back(svc::Query{d, e.prefix, svc::kAllFields});
  }
  batch.push_back(
      svc::Query{d, net::Prefix::parse("10.0.0.0/8"), svc::kAllFields});
  ASSERT_FALSE(batch.empty());
  const std::string request = svc::encode_query_request(batch);

  svc::TcpClientConnection via_epoll("127.0.0.1", epoll_srv.port(),
                                     svc::frame_size);
  svc::LoopbackConnection loop(server);
  EXPECT_EQ(via_epoll.roundtrip(request), loop.roundtrip(request));
}

TEST_F(TransportWorld, WhoisAnswersAreByteIdenticalAcrossTransports) {
  irr::WhoisServer whois(world_->irr, config_->window_begin + 60);
  svc::WhoisService service(whois);
  svc::EpollServer epoll_srv(service, svc::TransportOptions{});

  net::Asn origin(0);
  for (const irr::Registration& reg : world_->irr.all_history()) {
    if (reg.live_on(config_->window_begin + 60)) {
      origin = reg.object.origin;
      break;
    }
  }
  const std::vector<std::string> queries = {
      "!gAS" + std::to_string(origin.value()) + "\n",
      "!gAS4294967296\n",  // bad ASN: typed F line
      "!gASbanana\n",
  };
  svc::TcpClientConnection via_epoll("127.0.0.1", epoll_srv.port(),
                                     svc::whois_response_size);
  for (const std::string& q : queries) {
    const std::string direct =
        whois.handle(std::string_view(q).substr(0, q.size() - 1));
    EXPECT_EQ(via_epoll.roundtrip(q), direct) << q;
  }
}

}  // namespace
}  // namespace droplens
