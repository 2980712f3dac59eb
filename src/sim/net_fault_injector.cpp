#include "sim/net_fault_injector.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/rng.hpp"

namespace droplens::sim {

namespace {

constexpr size_t kMaxThreads = 32;

uint64_t steady_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int connect_loopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
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

/// Drain whatever the server sent without blocking. Returns bytes read;
/// sets `closed` when the server hung up.
size_t drain_nonblocking(int fd, bool& closed) {
  size_t total = 0;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      total += static_cast<size_t>(n);
      continue;
    }
    if (n == 0 || (n < 0 && (errno == ECONNRESET || errno == EPIPE))) {
      closed = true;  // a reset is the server hanging up mid-drain
    }
    break;
  }
  return total;
}

/// Wait up to `budget_ms` for the server to close the connection, draining
/// (and counting) anything it sends. Returns true when the server closed.
bool await_server_close(int fd, uint64_t budget_ms, size_t& received) {
  const uint64_t deadline = steady_ms() + budget_ms;
  while (true) {
    const uint64_t now = steady_ms();
    if (now >= deadline) return false;
    pollfd p{fd, POLLIN, 0};
    int r = ::poll(&p, 1, static_cast<int>(std::min<uint64_t>(
                              deadline - now, 100)));
    if (r < 0 && errno != EINTR) return false;
    if (r <= 0) continue;
    bool closed = false;
    received += drain_nonblocking(fd, closed);
    if (closed || (p.revents & (POLLHUP | POLLERR))) return true;
  }
}

/// Best-effort send that tolerates a server-side close (RST ⇒ EPIPE).
/// Returns bytes actually written.
size_t send_some(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    sent += static_cast<size_t>(n);
  }
  return sent;
}

struct ClientOutcome {
  bool connected = false;
  bool server_closed = false;
  bool gave_up = false;
  size_t sent = 0;
  size_t received = 0;
};

ClientOutcome run_one(NetFaultInjector::Profile profile,
                      const NetFaultInjector::Config& config, Rng& rng,
                      uint64_t deadline_ms) {
  ClientOutcome out;
  int fd = connect_loopback(config.port);
  if (fd < 0) return out;
  out.connected = true;
  const std::string& msg = config.message;
  using Profile = NetFaultInjector::Profile;
  switch (profile) {
    case Profile::kSlowDrip: {
      // One byte at a time, jittered around drip_delay_ms: steady enough
      // to defeat a naive per-read idle timeout, slow enough that a real
      // read deadline must fire before the message completes.
      for (size_t i = 0; i < msg.size(); ++i) {
        if (steady_ms() >= deadline_ms) {
          out.gave_up = true;
          break;
        }
        if (send_some(fd, msg.data() + i, 1) != 1) {
          out.server_closed = true;
          break;
        }
        out.sent += 1;
        bool closed = false;
        out.received += drain_nonblocking(fd, closed);
        if (closed) {
          out.server_closed = true;
          break;
        }
        const uint64_t jitter =
            config.drip_delay_ms == 0
                ? 0
                : rng.below(2 * static_cast<uint64_t>(config.drip_delay_ms));
        std::this_thread::sleep_for(std::chrono::milliseconds(jitter));
      }
      if (!out.server_closed && !out.gave_up) {
        // Whole message dripped through: wait briefly for the verdict.
        out.server_closed = await_server_close(
            fd, deadline_ms > steady_ms() ? deadline_ms - steady_ms() : 1,
            out.received);
        out.gave_up = !out.server_closed;
      }
      break;
    }
    case Profile::kMidFrameDisconnect: {
      const size_t cut =
          msg.empty() ? 0 : 1 + static_cast<size_t>(rng.below(msg.size()));
      out.sent = send_some(fd, msg.data(), cut);
      break;  // close() below is the attack
    }
    case Profile::kPartialWriteStall: {
      const size_t cut =
          msg.empty() ? 0 : 1 + static_cast<size_t>(rng.below(msg.size()));
      out.sent = send_some(fd, msg.data(), cut);
      out.server_closed = await_server_close(
          fd, deadline_ms > steady_ms() ? deadline_ms - steady_ms() : 1,
          out.received);
      out.gave_up = !out.server_closed;
      break;
    }
    case Profile::kNeverRead: {
      for (size_t r = 0; r < config.repeats; ++r) {
        if (steady_ms() >= deadline_ms) {
          out.gave_up = true;
          break;
        }
        const size_t sent = send_some(fd, msg.data(), msg.size());
        out.sent += sent;
        if (sent != msg.size()) {
          out.server_closed = true;
          break;
        }
      }
      if (!out.server_closed) {
        // Hold the connection without ever reading; a bounded server must
        // eventually cut us off (write watermark or idle timeout). The
        // server's FIN hides behind the response bytes we refuse to drain,
        // so POLLRDHUP — which fires on a peer close even with unread data
        // pending — is the only honest way to see the eviction.
        pollfd p{fd, POLLRDHUP, 0};
        while (steady_ms() < deadline_ms) {
          int r = ::poll(&p, 1, 50);
          if (r > 0 && (p.revents & (POLLRDHUP | POLLHUP | POLLERR))) {
            out.server_closed = true;
            break;
          }
        }
        out.gave_up = !out.server_closed;
      }
      break;
    }
    case Profile::kConnectFlood:
      // Handled by the caller (needs all fds open at once).
      break;
  }
  ::close(fd);
  return out;
}

}  // namespace

NetFaultInjector::Report NetFaultInjector::run(Profile profile,
                                               const Config& config) {
  Report report;
  std::mutex mu;
  const uint64_t deadline = steady_ms() + config.duration_ms;

  if (profile == Profile::kConnectFlood) {
    // The flood needs every connection open simultaneously — one thread
    // owns them all; connect() on loopback does not block long enough to
    // need parallelism.
    std::vector<int> fds;
    fds.reserve(config.clients);
    for (size_t i = 0; i < config.clients && steady_ms() < deadline; ++i) {
      ++report.attempted;
      int fd = connect_loopback(config.port);
      if (fd < 0) {
        ++report.connect_failures;
        continue;
      }
      ++report.connected;
      fds.push_back(fd);
    }
    // Hold the herd open for the remaining budget, watching for evictions.
    while (steady_ms() < deadline && !fds.empty()) {
      for (size_t i = 0; i < fds.size();) {
        bool closed = false;
        report.bytes_received += drain_nonblocking(fds[i], closed);
        pollfd p{fds[i], POLLIN, 0};
        if (!closed && ::poll(&p, 1, 0) > 0 &&
            (p.revents & (POLLHUP | POLLERR))) {
          closed = true;
        }
        if (closed) {
          ++report.closed_by_server;
          ::close(fds[i]);
          fds[i] = fds.back();
          fds.pop_back();
        } else {
          ++i;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    report.gave_up = fds.size();
    for (int fd : fds) ::close(fd);
    return report;
  }

  const size_t threads = std::min(config.clients, kMaxThreads);
  std::vector<std::thread> pool;
  std::atomic<size_t> next{0};
  Rng root(config.seed);
  std::vector<Rng> rngs;
  rngs.reserve(threads);
  for (size_t t = 0; t < threads; ++t) rngs.push_back(root.fork());
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng = rngs[t];
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= config.clients || steady_ms() >= deadline) break;
        ClientOutcome out = run_one(profile, config, rng, deadline);
        std::lock_guard<std::mutex> lock(mu);
        ++report.attempted;
        if (out.connected) {
          ++report.connected;
        } else {
          ++report.connect_failures;
        }
        if (out.server_closed) ++report.closed_by_server;
        if (out.gave_up) ++report.gave_up;
        report.bytes_sent += out.sent;
        report.bytes_received += out.received;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return report;
}

}  // namespace droplens::sim
