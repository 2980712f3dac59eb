// Load generator for the hardened serving edge (svc::EpollServer).
//
// Two phases against one epoll daemon in-process:
//
//   ramp    open --target concurrent connections (default 100000) and hold
//           them all open — the "millions of idle clients" posture, scaled
//           to one box. The target is clamped to the process fd limit
//           (each connection costs two fds here: client end + server end);
//           a clamp is LOUDLY reported, never silently truncated, so a run
//           on a small `ulimit -n` cannot masquerade as the full result.
//   churn   while the herd idles, --active client threads hammer request/
//           response roundtrips (p50/p99 reported) and a churn thread
//           closes and reopens connections continuously — accept/teardown
//           pressure under full load, the regime where a thread-per-
//           connection transport falls over.
//
// The service is a minimal line echo, so the numbers measure the transport,
// not snapshot lookups (bench_perf_service covers those).
//
//   $ ./bench_perf_transport [--target=N] [--event-threads=N] [--active=N]
//                            [--seconds=S] [--no-churn]
//
// --target takes any count from 1, --event-threads and --active 1..1024,
// --seconds any number from 0.001; any other value or flag prints the usage
// line and exits 2 before the server or any thread starts.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/transport.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

using namespace droplens;

namespace {

struct Options {
  size_t target = 100'000;
  unsigned event_threads = 2;
  unsigned active = 2;
  double seconds = 5.0;
  bool churn = true;
};

class PingService : public svc::Service {
 public:
  size_t message_size(std::string_view buffer) const override {
    size_t pos = buffer.find('\n');
    return pos == std::string_view::npos ? 0 : pos + 1;
  }
  std::string serve(std::string_view message) override {
    return "pong:" + std::string(message.substr(0, message.size() - 1)) + "\n";
  }
  std::string malformed_response(std::string_view) override { return "bad\n"; }
  std::string timeout_response() override { return "slow\n"; }
};

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t fd_budget() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  // Two fds per held connection (both ends live in this process), plus
  // slack for the listener, epoll/event fds, stdio, and the active clients.
  const uint64_t slack = 256;
  if (rl.rlim_cur <= slack) return 0;
  return static_cast<size_t>((rl.rlim_cur - slack) / 2);
}

struct LatencyRecorder {
  std::vector<uint32_t> ns;
  uint64_t roundtrips = 0;
  bool diverged = false;
};

int usage() {
  std::cerr << "usage: bench_perf_transport [--target=N] "
               "[--event-threads=1..1024] [--active=1..1024] [--seconds=S] "
               "[--no-churn]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strncmp(arg, "--target=", 9) == 0) {
        opt.target = util::parse_number<uint64_t>(arg + 9, 1);
      } else if (std::strncmp(arg, "--event-threads=", 16) == 0) {
        opt.event_threads = util::parse_number<uint32_t>(arg + 16, 1, 1024);
      } else if (std::strncmp(arg, "--active=", 9) == 0) {
        opt.active = util::parse_number<uint32_t>(arg + 9, 1, 1024);
      } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
        opt.seconds = util::parse_number<double>(arg + 10, 0.001);
      } else if (std::strcmp(arg, "--no-churn") == 0) {
        opt.churn = false;
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      }
    } catch (const ParseError& e) {
      std::cerr << arg << ": " << e.what() << "\n";
      return usage();
    }
  }

  // The ulimit guard: clamp to what the fd limit can actually hold, and say
  // so in a way no one can miss. A silent clamp would let a capped run pass
  // for the real 100K result.
  const size_t budget = fd_budget();
  size_t target = opt.target;
  bool fd_capped = false;
  if (budget < target) {
    fd_capped = true;
    target = budget;
    rlimit rl{};
    ::getrlimit(RLIMIT_NOFILE, &rl);
    std::cerr << "WARNING: RLIMIT_NOFILE=" << rl.rlim_cur << " caps this run at "
              << target << " concurrent connections — BELOW the requested "
              << opt.target << ".\n"
              << "WARNING: raise the limit (ulimit -n "
              << (2 * opt.target + 512)
              << ") to prove the full target on this machine.\n";
  }

  PingService service;
  svc::TransportOptions options;
  options.listen.backlog = 1024;
  options.event_threads = opt.event_threads;
  svc::EpollServer server(service, options);

  // Phase 1: ramp the idle herd.
  std::cerr << "[ramping " << target << " connections...]\n";
  const auto ramp_start = std::chrono::steady_clock::now();
  std::vector<int> herd;
  herd.reserve(target);
  size_t connect_failures = 0;
  for (size_t i = 0; i < target; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (fd >= 0) ::close(fd);
      ++connect_failures;
      continue;
    }
    herd.push_back(fd);
    // Throttle to the accept rate so the listen backlog never overflows:
    // stay within half a backlog of what the server has registered.
    if (herd.size() % 512 == 0) {
      while (server.stats().open + 512 < herd.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  while (server.stats().open < herd.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double ramp_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - ramp_start)
                            .count();
  const size_t held = herd.size();

  // Phase 2: latency under churn, with the herd still holding its fds.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churn_cycles{0};
  std::vector<LatencyRecorder> recorders(opt.active);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < opt.active; ++t) {
    clients.emplace_back([&, t] {
      LatencyRecorder& r = recorders[t];
      r.ns.reserve(1 << 18);
      try {
        svc::TcpClientConnection conn(
            "127.0.0.1", server.port(), [](std::string_view b) {
              size_t pos = b.find('\n');
              return pos == std::string_view::npos ? size_t{0} : pos + 1;
            });
        const std::string request = "ping " + std::to_string(t) + "\n";
        const std::string expected = "pong:ping " + std::to_string(t) + "\n";
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t begin = now_ns();
          if (conn.roundtrip(request) != expected) r.diverged = true;
          const uint64_t ns = now_ns() - begin;
          r.ns.push_back(static_cast<uint32_t>(
              std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max())));
          ++r.roundtrips;
        }
      } catch (const std::exception& e) {
        std::cerr << "active client " << t << " died: " << e.what() << "\n";
        r.diverged = true;
      }
    });
  }
  std::thread churner;
  if (opt.churn && held > 0) {
    churner = std::thread([&] {
      // Continuously retire the oldest herd member and enlist a fresh one:
      // accept + teardown pressure while the herd stays at full strength.
      size_t next = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(server.port());
        if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) == 0) {
          ::close(herd[next]);
          herd[next] = fd;
          next = (next + 1) % herd.size();
          churn_cycles.fetch_add(1, std::memory_order_relaxed);
        } else if (fd >= 0) {
          ::close(fd);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true);
  for (std::thread& c : clients) c.join();
  if (churner.joinable()) churner.join();

  uint64_t roundtrips = 0;
  bool diverged = false;
  std::vector<uint32_t> latencies;
  for (LatencyRecorder& r : recorders) {
    roundtrips += r.roundtrips;
    diverged |= r.diverged;
    latencies.insert(latencies.end(), r.ns.begin(), r.ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double q) -> double {
    if (latencies.empty()) return 0;
    size_t idx = static_cast<size_t>(q * static_cast<double>(latencies.size()));
    return static_cast<double>(
               latencies[std::min(idx, latencies.size() - 1)]) /
           1000.0;  // µs
  };

  const svc::TransportStats stats = server.stats();
  for (int fd : herd) ::close(fd);
  server.stop();

  util::TextTable table({"quantity", "value"});
  table.add_row({"target connections", std::to_string(opt.target)});
  table.add_row({"fd-limit clamp", fd_capped ? "YES (see warning)" : "no"});
  table.add_row({"connections held", std::to_string(held)});
  table.add_row({"connect failures", std::to_string(connect_failures)});
  table.add_row({"ramp seconds", util::fixed(ramp_s, 2)});
  table.add_row({"ramp conns/sec",
                 util::fixed(ramp_s > 0 ? static_cast<double>(held) / ramp_s
                                        : 0,
                             0)});
  table.add_row({"event threads", std::to_string(opt.event_threads)});
  table.add_row({"churn cycles", std::to_string(churn_cycles.load())});
  table.add_row({"active roundtrips", std::to_string(roundtrips)});
  table.add_row({"p50 latency us", util::fixed(pct(0.50), 2)});
  table.add_row({"p99 latency us", util::fixed(pct(0.99), 2)});
  table.add_row({"server accepted", std::to_string(stats.accepted)});
  table.add_row({"accept errors survived", std::to_string(stats.accept_errors)});
  std::cout << "transport: epoll edge under idle herd + churn\n";
  table.print(std::cout);
  if (diverged) {
    std::cerr << "FATAL: a roundtrip response diverged\n";
    return 1;
  }
  // Machine-readable line for EXPERIMENTS.md.
  std::cout << "{\"bench\":\"perf_transport\",\"target\":" << opt.target
            << ",\"held\":" << held << ",\"fd_capped\":" << (fd_capped ? 1 : 0)
            << ",\"ramp_s\":" << ramp_s
            << ",\"churn_cycles\":" << churn_cycles.load()
            << ",\"roundtrips\":" << roundtrips << ",\"p50_us\":" << pct(0.50)
            << ",\"p99_us\":" << pct(0.99) << "}\n";

  // Overhead gate: with the flight recorder armed at the production 1/1024
  // sampling, the epoll edge's roundtrip cost must stay within 3% of the
  // untraced transport. Each measurement builds a fresh server (the
  // TraceBinding resolves the installed recorder at construction) and times
  // a fixed count of synchronous roundtrips; best-of-3 interleaved trials
  // keep scheduler noise out of a 3% comparison.
  {
    constexpr double kBudgetPct = 3.0;
    constexpr uint64_t kWarmup = 500;
    constexpr uint64_t kIters = 20'000;
    bool gate_diverged = false;
    auto roundtrip_ns = [&gate_diverged](bool armed) -> double {
      obs::FlightRecorder::Options armed_options;
      armed_options.sample_period = 1024;
      obs::FlightRecorder recorder(armed_options);
      std::optional<obs::ScopedFlightRecorder> scoped;
      if (armed) scoped.emplace(recorder);
      PingService gate_service;
      svc::TransportOptions gate_options;
      gate_options.name = "gate";
      gate_options.event_threads = 2;
      svc::EpollServer gate_server(gate_service, gate_options);
      svc::TcpClientConnection conn(
          "127.0.0.1", gate_server.port(), [](std::string_view b) {
            size_t pos = b.find('\n');
            return pos == std::string_view::npos ? size_t{0} : pos + 1;
          });
      const std::string request = "ping gate\n";
      const std::string expected = "pong:ping gate\n";
      for (uint64_t n = 0; n < kWarmup; ++n) {
        if (conn.roundtrip(request) != expected) gate_diverged = true;
      }
      const uint64_t begin = now_ns();
      for (uint64_t n = 0; n < kIters; ++n) {
        if (conn.roundtrip(request) != expected) gate_diverged = true;
      }
      const double ns = static_cast<double>(now_ns() - begin) /
                        static_cast<double>(kIters);
      gate_server.stop();
      return ns;
    };
    double base_ns = std::numeric_limits<double>::max();
    double armed_ns = std::numeric_limits<double>::max();
    for (int trial = 0; trial < 3; ++trial) {
      base_ns = std::min(base_ns, roundtrip_ns(false));
      armed_ns = std::min(armed_ns, roundtrip_ns(true));
    }
    const double overhead_pct = (armed_ns - base_ns) / base_ns * 100.0;
    std::cout << "overhead gate: recorder armed at 1/1024, epoll roundtrips\n"
              << "  untraced  " << base_ns / 1000.0 << " us/roundtrip\n"
              << "  traced    " << armed_ns / 1000.0 << " us/roundtrip\n"
              << "  overhead  " << overhead_pct << "%  (budget "
              << kBudgetPct << "%)\n";
    if (gate_diverged) {
      std::cerr << "FATAL: a gate roundtrip diverged\n";
      return 1;
    }
    if (overhead_pct > kBudgetPct) {
      std::cerr << "FATAL: recorder overhead " << overhead_pct
                << "% exceeds the " << kBudgetPct << "% budget\n";
      return 1;
    }
  }
  return 0;
}
