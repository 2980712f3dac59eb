#include "svc/epoll_transport.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/error.hpp"

namespace droplens::svc {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
/// Longest writev gather per sendmsg call.
constexpr size_t kMaxIov = 8;
/// Timer-wheel granularity; deadlines are enforced within one tick.
constexpr uint32_t kTickMs = 16;
/// Grace period for flushing a final (timeout/malformed) reply, counted from
/// when the write queue last became non-empty; a peer that won't even read
/// its eviction notice is force-closed after this.
constexpr uint64_t kFlushGraceMs = 1000;
/// How long an event thread keeps polling (epoll_wait timeout 0) after its
/// last socket event before it blocks: one client turnaround, so the next
/// request of a closed-loop client finds the thread running instead of
/// paying a cross-CPU wakeup (DESIGN.md §11, "Poll before sleeping").
constexpr uint64_t kSpinUs = 50;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("svc epoll: " + what + ": " +
                           std::strerror(errno));
}

uint64_t steady_us() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t steady_ms() { return steady_us() / 1000; }

}  // namespace

// ---------------------------------------------------------------------------
// TimerWheel

TimerWheel::TimerWheel(uint64_t now_ms, uint32_t tick_ms, size_t slots)
    : tick_ms_(tick_ms == 0 ? 1 : tick_ms),
      cursor_(now_ms / tick_ms_),
      slots_(slots == 0 ? 1 : slots) {}

void TimerWheel::arm(uint64_t id, uint64_t deadline_ms) {
  armed_[id] = deadline_ms;  // stale slot entries are skipped lazily
  // Bucket by the deadline rounded UP to a tick: when the cursor first
  // reaches the slot, now >= deadline is guaranteed for anything within one
  // revolution. Flooring instead would park a deadline that lands mid-tick
  // in a slot the cursor passes a fraction early, postponing it a whole
  // revolution.
  uint64_t tick = (deadline_ms + tick_ms_ - 1) / tick_ms_;
  // A deadline already behind the cursor still has to fire: park it in the
  // next tick's slot so the next advance sees it.
  if (tick <= cursor_) tick = cursor_ + 1;
  slots_[tick % slots_.size()].push_back(Entry{id, deadline_ms});
}

void TimerWheel::cancel(uint64_t id) { armed_.erase(id); }

void TimerWheel::advance(uint64_t now_ms, std::vector<uint64_t>& expired) {
  uint64_t target = now_ms / tick_ms_;
  if (target <= cursor_) return;
  // A gap longer than one revolution still only needs each slot scanned
  // once — entries are expired by their absolute deadline, not slot order.
  const uint64_t steps =
      std::min<uint64_t>(target - cursor_, slots_.size());
  std::vector<Entry> due;
  for (uint64_t s = 1; s <= steps; ++s) {
    std::vector<Entry>& slot = slots_[(cursor_ + s) % slots_.size()];
    size_t keep = 0;
    for (Entry& e : slot) {
      auto it = armed_.find(e.id);
      if (it == armed_.end() || it->second != e.deadline) continue;  // stale
      if (e.deadline <= now_ms) {
        due.push_back(e);
        armed_.erase(it);
      } else {
        slot[keep++] = e;  // future revolution; leave bucketed
      }
    }
    slot.resize(keep);
  }
  cursor_ = target;
  std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
  });
  for (const Entry& e : due) expired.push_back(e.id);
}

uint64_t TimerWheel::next_wake_delay(uint64_t now_ms,
                                     uint64_t idle_hint) const {
  if (armed_.empty()) return idle_hint;
  const uint64_t next_boundary = (now_ms / tick_ms_ + 1) * tick_ms_;
  return next_boundary - now_ms;
}

// ---------------------------------------------------------------------------
// EpollServer

EpollServer::EpollServer(Service& service, const TransportOptions& options)
    : service_(service),
      options_(options),
      counters_("epoll", options.name),
      trace_(options.name) {
  Listener l = open_listener(options_.listen);
  listen_fd_ = l.fd;
  port_ = l.port;
  const unsigned threads = std::max(1u, options_.event_threads);
  const uint64_t now = steady_ms();
  try {
    for (unsigned i = 0; i < threads; ++i) {
      auto w = std::make_unique<Worker>();
      w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (w->epoll_fd < 0) fail("epoll_create1");
      w->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (w->wake_fd < 0) fail("eventfd");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = w->wake_fd;
      if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) < 0) {
        fail("epoll_ctl(wake)");
      }
      // EPOLLEXCLUSIVE: exactly one sleeping worker wakes per incoming
      // connection burst, so accepts spread without a thundering herd and
      // every connection is born onto the thread that owns it for life.
      ev.events = EPOLLIN | EPOLLEXCLUSIVE;
      ev.data.fd = listen_fd_;
      if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
        fail("epoll_ctl(listen)");
      }
      w->wheel = std::make_unique<TimerWheel>(now, kTickMs);
      workers_.push_back(std::move(w));
    }
  } catch (...) {
    stopping_.store(true);
    for (auto& w : workers_) {
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
      if (w->wake_fd >= 0) ::close(w->wake_fd);
    }
    ::close(listen_fd_);
    throw;
  }
  for (auto& w : workers_) {
    Worker* raw = w.get();
    w->thread = std::thread([this, raw] { loop(*raw); });
  }
}

EpollServer::~EpollServer() { stop(); }

void EpollServer::stop() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    for (auto& w : workers_) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(w->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
    if (w->epoll_fd >= 0) {
      ::close(w->epoll_fd);
      w->epoll_fd = -1;
    }
    if (w->wake_fd >= 0) {
      ::close(w->wake_fd);
      w->wake_fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void EpollServer::loop(Worker& w) {
  std::array<epoll_event, 64> events;
  uint64_t poll_until_us = 0;  // waits use timeout 0 until then
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout = 0;
    if (steady_us() >= poll_until_us) {
      const uint64_t delay =
          w.wheel->next_wake_delay(steady_ms(), /*idle_hint=*/200);
      timeout = static_cast<int>(std::min<uint64_t>(delay, 60'000));
    }
    int n = ::epoll_wait(w.epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    const uint64_t now = steady_ms();
    bool served = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      served |= fd != w.wake_fd;
      if (fd == listen_fd_) {
        accept_ready(w, now);
      } else if (fd == w.wake_fd) {
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            ::read(w.wake_fd, &drained, sizeof(drained));
      } else {
        // epoll delivers at most one event per fd per wait, so a
        // connection closed earlier in this batch cannot alias a
        // same-batch event (lookups on erased fds simply miss).
        auto it = w.conns.find(fd);
        if (it != w.conns.end()) {
          handle_io(w, *it->second, events[i].events, now);
        }
      }
    }
    if (served) poll_until_us = steady_us() + kSpinUs;
    expire_timers(w, steady_ms());
  }
  // Teardown: this thread owns its shard exclusively, so closing here
  // cannot race in-flight I/O.
  for (auto& [fd, c] : w.conns) {
    counters_.add_buffered(-static_cast<int64_t>(c->out_bytes));
    if (c->unflushed > 0) {
      inflight_.fetch_sub(c->unflushed, std::memory_order_relaxed);
      counters_.add_inflight(-static_cast<int64_t>(c->unflushed));
    }
    counters_.on_close(DisconnectReason::kServerStop);
    ::close(fd);
  }
  w.conns.clear();
}

void EpollServer::accept_ready(Worker& w, uint64_t now) {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      switch (accept_errno_action(errno)) {
        case AcceptAction::kRetry:
          counters_.on_accept_error();
          continue;
        case AcceptAction::kRetryBackoff:
          // fd exhaustion: the listen fd stays readable (level-triggered),
          // so without a pause this loop would spin hot. A short sleep on
          // the unlucky worker throttles accepts while the other workers
          // keep serving.
          counters_.on_accept_error();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          return;
        case AcceptAction::kFatal:
          return;
      }
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    if (!counters_.try_accept(options_.max_conns)) {
      // Over the cap: a typed overload reply when the protocol has one
      // (best effort — the socket buffer of a fresh connection always has
      // room), then an immediate close. Never an unbounded fd.
      std::string reply = service_.overload_response({});
      if (!reply.empty()) {
        [[maybe_unused]] ssize_t r = ::send(
            fd, reply.data(), reply.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      }
      ::close(fd);
      continue;
    }
    if (options_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                   sizeof(options_.so_sndbuf));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->last_activity = now;
    conn->registered_events = EPOLLIN;
    // The connection's first request gets its accept latency on the trace;
    // later requests begin at their first read.
    conn->trace = trace_.begin();
    conn->trace.stage("accept");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      counters_.on_close(DisconnectReason::kError);
      ::close(fd);
      continue;
    }
    Conn& ref = *conn;
    w.conns.emplace(fd, std::move(conn));
    rearm_timer(w, ref);
  }
}

void EpollServer::handle_io(Worker& w, Conn& c, uint32_t events,
                            uint64_t now) {
  if (events & EPOLLERR) {
    close_conn(w, c, DisconnectReason::kError);
    return;
  }
  if (events & EPOLLOUT) {
    if (!flush_out(w, c, now)) return;
  }
  if ((events & (EPOLLIN | EPOLLHUP)) && !c.closing_after_flush) {
    char chunk[kReadChunk];
    ssize_t got = ::read(c.fd, chunk, sizeof(chunk));
    if (got == 0) {
      close_conn(w, c, DisconnectReason::kPeerClosed);
      return;
    }
    if (got < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        close_conn(w, c, DisconnectReason::kError);
        return;
      }
    } else {
      c.in.append(chunk, static_cast<size_t>(got));
      c.last_activity = now;
      // Resume (or begin) the request trace on the thread this connection
      // is confined to: the first chunk of a request opens its read stage.
      if (!c.trace) c.trace = trace_.begin();
      if (c.trace && !c.trace_served && !c.trace_reading) {
        c.trace.stage("read");
        c.trace_reading = true;
      }
      if (!drain_messages(w, c, now)) return;
    }
  }
  rearm_timer(w, c);
}

bool EpollServer::should_shed(MessageClass cls) const {
  const size_t m = options_.max_inflight;
  if (m == 0) return false;
  const size_t load = inflight_.load(std::memory_order_relaxed) +
                      inflight_bias_.load(std::memory_order_relaxed);
  switch (cls) {
    case MessageClass::kBulk:
      return load >= std::max<size_t>(1, m / 2);
    case MessageClass::kNormal:
      return load >= m;
    case MessageClass::kControl:
      return load >= 2 * m;
  }
  return false;
}

bool EpollServer::drain_messages(Worker& w, Conn& c, uint64_t now) {
  while (true) {
    size_t n;
    try {
      n = service_.message_size(c.in);
    } catch (const ParseError&) {
      std::string reply = service_.malformed_response(c.in);
      finish_trace(c, "malformed");
      close_after_flush(w, c, std::move(reply), DisconnectReason::kMalformed,
                        now);
      return false;
    }
    if (n == 0) {
      if (c.in.empty()) {
        c.partial_since = 0;
      } else if (c.partial_since == 0) {
        c.partial_since = now;  // a partial message is timed from here
      }
      return true;
    }
    c.partial_since = 0;
    // A pipelined request completing while the previous response still
    // drains takes over the connection's single trace slot: the old trace
    // finishes here (its flush overlapped this request's read) and a fresh
    // one covers the new message.
    if (c.trace && c.trace_served) finish_trace(c, "ok");
    if (!c.trace) c.trace = trace_.begin();
    const std::string_view message(c.in.data(), n);
    const MessageClass cls = service_.classify(message);
    if (should_shed(cls)) {
      counters_.on_shed(cls);
      std::string reply = service_.overload_response(message);
      c.in.erase(0, n);
      finish_trace(c, "shed");
      if (reply.empty()) {
        close_conn(w, c, DisconnectReason::kShed);
        return false;
      }
      if (!enqueue(w, c, std::move(reply), now)) return false;
      continue;
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    counters_.add_inflight(1);
    c.unflushed += 1;
    c.trace_reading = false;
    c.trace.stage("serve");
    std::string response = service_.serve(message, c.trace);
    c.trace.stage("flush");
    c.trace_served = true;
    c.in.erase(0, n);
    if (!enqueue(w, c, std::move(response), now)) return false;
  }
}

bool EpollServer::enqueue(Worker& w, Conn& c, std::string&& bytes,
                          uint64_t now) {
  if (!bytes.empty()) {
    c.out_bytes += bytes.size();
    counters_.add_buffered(static_cast<int64_t>(bytes.size()));
    c.out.push_back(std::move(bytes));
  }
  if (!flush_out(w, c, now)) return false;
  if (c.out_bytes > options_.max_write_buffer) {
    // Backpressure limit: a reader this slow gets disconnected instead of
    // growing an unbounded queue.
    close_conn(w, c, DisconnectReason::kWriteOverflow);
    return false;
  }
  return true;
}

bool EpollServer::flush_out(Worker& w, Conn& c, uint64_t now) {
  // Responses go to the kernel straight from the buffers serve() returned —
  // a writev gather over the queue head, no intermediate copy; only the
  // unsent tail stays queued.
  while (!c.out.empty()) {
    iovec iov[kMaxIov];
    size_t cnt = 0;
    size_t off = c.out_head_off;
    for (auto it = c.out.begin(); it != c.out.end() && cnt < kMaxIov; ++it) {
      iov[cnt].iov_base = const_cast<char*>(it->data()) + off;
      iov[cnt].iov_len = it->size() - off;
      off = 0;
      ++cnt;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    ssize_t written = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(w, c, DisconnectReason::kPeerClosed);
      return false;
    }
    c.last_activity = now;  // a draining peer is not idle
    c.out_bytes -= static_cast<size_t>(written);
    counters_.add_buffered(-written);
    size_t left = static_cast<size_t>(written);
    while (left > 0) {
      const size_t head_remaining = c.out.front().size() - c.out_head_off;
      if (left >= head_remaining) {
        left -= head_remaining;
        c.out.pop_front();
        c.out_head_off = 0;
      } else {
        c.out_head_off += left;
        left = 0;
      }
    }
  }
  if (c.out.empty()) {
    c.out_head_off = 0;
    c.write_pending_since = 0;
    if (c.unflushed > 0) {
      inflight_.fetch_sub(c.unflushed, std::memory_order_relaxed);
      counters_.add_inflight(-static_cast<int64_t>(c.unflushed));
      c.unflushed = 0;
    }
    // The response reached the kernel: the request's trace is complete.
    if (c.trace && c.trace_served) finish_trace(c, "ok");
    if (c.closing_after_flush) {
      close_conn(w, c, c.flush_close_reason);
      return false;
    }
  } else if (c.write_pending_since == 0) {
    c.write_pending_since = now;
  }
  update_epoll(w, c);
  return true;
}

void EpollServer::update_epoll(Worker& w, Conn& c) {
  uint32_t wanted = c.closing_after_flush ? 0u : uint32_t{EPOLLIN};
  if (!c.out.empty()) wanted |= EPOLLOUT;
  if (wanted == c.registered_events) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.fd = c.fd;
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  c.registered_events = wanted;
}

void EpollServer::close_after_flush(Worker& w, Conn& c, std::string&& reply,
                                    DisconnectReason reason, uint64_t now) {
  if (reply.empty() && c.out.empty()) {
    close_conn(w, c, reason);
    return;
  }
  c.closing_after_flush = true;
  c.flush_close_reason = reason;
  c.in.clear();
  ::shutdown(c.fd, SHUT_RD);  // done reading; only the final reply remains
  if (!enqueue(w, c, std::move(reply), now)) return;  // may close inline
  if (c.write_pending_since == 0) c.write_pending_since = now;
  rearm_timer(w, c);
}

void EpollServer::finish_trace(Conn& c, std::string_view outcome) {
  if (c.trace) c.trace.finish(outcome);
  c.trace_reading = false;
  c.trace_served = false;
}

void EpollServer::close_conn(Worker& w, Conn& c, DisconnectReason reason) {
  const int fd = c.fd;
  w.wheel->cancel(static_cast<uint64_t>(fd));
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  counters_.add_buffered(-static_cast<int64_t>(c.out_bytes));
  if (c.unflushed > 0) {
    inflight_.fetch_sub(c.unflushed, std::memory_order_relaxed);
    counters_.add_inflight(-static_cast<int64_t>(c.unflushed));
  }
  counters_.on_close(reason);
  ::close(fd);
  w.conns.erase(fd);  // destroys c — nothing may touch it past this line
}

// A connection has at most one armed timer, always set to the minimum of
// its applicable limits; expire_timers re-derives which limit fired.
void EpollServer::rearm_timer(Worker& w, Conn& c) {
  uint64_t at = 0;
  if (c.closing_after_flush) {
    at = c.write_pending_since + kFlushGraceMs;
  } else if (options_.idle_timeout_ms != 0) {
    // A partial message started no later than the last activity, so its
    // first byte sets the earlier of the two deadlines.
    at = (c.partial_since != 0 ? c.partial_since : c.last_activity) +
         options_.idle_timeout_ms;
  }
  if (at == 0) {
    w.wheel->cancel(static_cast<uint64_t>(c.fd));
  } else {
    w.wheel->arm(static_cast<uint64_t>(c.fd), at);
  }
}

void EpollServer::expire_timers(Worker& w, uint64_t now) {
  std::vector<uint64_t> expired;
  w.wheel->advance(now, expired);
  for (uint64_t id : expired) {
    auto it = w.conns.find(static_cast<int>(id));
    if (it == w.conns.end()) continue;
    Conn& c = *it->second;
    if (c.closing_after_flush) {
      // The flush grace ran out: the peer would not even read its eviction
      // notice. Count the original close reason.
      close_conn(w, c, c.flush_close_reason);
      continue;
    }
    // Deadlines move as the connection makes progress; fire only the ones
    // still due, re-arm the rest. A partial message is timed from its first
    // byte, so a drip that keeps the connection active is still cut. Idle
    // fires even with an undrained queue pending, so a connection making
    // no progress in either direction is always bounded.
    const uint64_t idle = options_.idle_timeout_ms;
    if (idle != 0 && c.partial_since != 0 && now >= c.partial_since + idle) {
      finish_trace(c, "timeout");
      close_after_flush(w, c, service_.timeout_response(),
                        DisconnectReason::kReadDeadline, now);
      continue;
    }
    if (idle != 0 && now >= c.last_activity + idle) {
      finish_trace(c, "timeout");
      close_after_flush(w, c, service_.timeout_response(),
                        DisconnectReason::kIdleTimeout, now);
      continue;
    }
    rearm_timer(w, c);
  }
}

}  // namespace droplens::svc
