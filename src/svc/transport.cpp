#include "svc/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace droplens::svc {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("svc transport: " + what + ": " +
                           std::strerror(errno));
}

// Retries short writes and EINTR; MSG_NOSIGNAL keeps a dead peer from
// raising SIGPIPE. Returns false when the peer is gone.
bool write_all(int fd, std::string_view bytes) {
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

const char* kReasonNames[kDisconnectReasonCount] = {
    "peer_closed", "malformed", "idle_timeout", "read_deadline",
    "write_overflow", "shed", "server_stop", "error",
};

const char* kClassNames[kMessageClassCount] = {"bulk", "normal", "control"};

obs::Labels with_listener(const char* transport, const std::string& name,
                          std::initializer_list<std::pair<const char*,
                                                          const char*>>
                              extra = {}) {
  obs::Labels labels{{"transport", transport}};
  if (!name.empty()) labels.emplace_back("listener", name);
  for (const auto& [k, v] : extra) labels.emplace_back(k, v);
  return labels;
}

}  // namespace

const char* disconnect_reason_name(DisconnectReason r) {
  return kReasonNames[static_cast<size_t>(r)];
}

TraceBinding::TraceBinding(const std::string& name) {
  recorder = obs::installed_flight_recorder();
  if (recorder) {
    op = recorder->op_class(name.empty() ? "server" : name);
  }
}

TransportCounters::TransportCounters(const char* transport,
                                     const std::string& name) {
  obs::Registry& registry = obs::installed_or(own_registry_);
  const obs::Labels labels = with_listener(transport, name);
  accepted_ = registry.counter("droplens_transport_accepted_total", labels,
                               "Connections accepted over the lifetime");
  overload_rejected_ =
      registry.counter("droplens_transport_overload_rejects_total", labels,
                       "Accepts refused at the connection cap");
  accept_errors_ =
      registry.counter("droplens_transport_accept_errors_total", labels,
                       "Transient accept() failures survived");
  open_g_ = registry.gauge("droplens_transport_open_connections", labels,
                           "Currently open connections");
  buffered_bytes_g_ =
      registry.gauge("droplens_transport_buffered_bytes", labels,
                     "Response bytes queued for slow readers");
  inflight_g_ =
      registry.gauge("droplens_transport_inflight", labels,
                     "Messages being served plus responses not yet flushed");
  for (size_t i = 0; i < kMessageClassCount; ++i) {
    shed_[i] = registry.counter(
        "droplens_transport_shed_total",
        with_listener(transport, name, {{"class", kClassNames[i]}}),
        "Messages refused under overload, by priority class");
  }
  for (size_t i = 0; i < kDisconnectReasonCount; ++i) {
    disconnects_[i] = registry.counter(
        "droplens_transport_disconnects_total",
        with_listener(transport, name, {{"reason", kReasonNames[i]}}),
        "Connections closed, by reason");
  }
}

bool TransportCounters::try_accept(size_t max_conns) {
  // Reserve-then-check keeps the cap strict even when several event threads
  // race through accept at once.
  uint64_t now_open = open_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (max_conns != 0 && now_open > max_conns) {
    open_.fetch_sub(1, std::memory_order_relaxed);
    overload_rejected_.inc();
    return false;
  }
  accepted_.inc();
  open_g_.add(1);
  return true;
}

void TransportCounters::on_close(DisconnectReason r) {
  open_.fetch_sub(1, std::memory_order_relaxed);
  open_g_.sub(1);
  disconnects_[static_cast<size_t>(r)].inc();
}

TransportStats TransportCounters::snapshot() const {
  TransportStats s;
  s.accepted = accepted_.value();
  s.overload_rejected = overload_rejected_.value();
  s.accept_errors = accept_errors_.value();
  s.open = static_cast<uint64_t>(open_g_.value());
  for (size_t i = 0; i < kMessageClassCount; ++i) {
    s.shed[i] = shed_[i].value();
  }
  for (size_t i = 0; i < kDisconnectReasonCount; ++i) {
    s.disconnects[i] = disconnects_[i].value();
  }
  return s;
}

AcceptAction accept_errno_action(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:  // peer gave up during the handshake
    case EPROTO:
      return AcceptAction::kRetry;
    case EAGAIN:  // nonblocking listener drained (also EWOULDBLOCK)
      return AcceptAction::kRetry;
    case EMFILE:  // fd exhaustion: retrying instantly would spin; back off
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return AcceptAction::kRetryBackoff;
    default:
      // EBADF / EINVAL / ENOTSOCK: the listening socket itself is gone.
      return AcceptAction::kFatal;
  }
}

Listener open_listener(const ListenerOptions& options) {
  Listener l;
  l.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (l.fd < 0) fail("socket");
  int saved = 0;
  try {
    int one = 1;
    if (::setsockopt(l.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
      fail("setsockopt(SO_REUSEADDR)");
    }
    int flags = ::fcntl(l.fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(l.fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      fail("fcntl(O_NONBLOCK)");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (::bind(l.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail("bind");
    }
    if (::listen(l.fd, options.backlog) < 0) fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(l.fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      fail("getsockname");
    }
    l.port = ntohs(addr.sin_port);
  } catch (...) {
    saved = errno;
    ::close(l.fd);
    errno = saved;
    throw;
  }
  return l;
}

TcpClientConnection::TcpClientConnection(const std::string& host,
                                         uint16_t port, Framer framer)
    : framer_(std::move(framer)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("svc transport: bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    ::close(fd_);
    errno = saved;
    fail("connect");
  }
}

TcpClientConnection::~TcpClientConnection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string TcpClientConnection::roundtrip(std::string_view message) {
  if (!write_all(fd_, message)) fail("send");
  char chunk[kReadChunk];
  while (true) {
    size_t n = framer_(buffer_);  // ParseError here means a broken server
    if (n > 0) {
      std::string response = buffer_.substr(0, n);
      buffer_.erase(0, n);
      return response;
    }
    ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      throw std::runtime_error("svc transport: connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

}  // namespace droplens::svc
