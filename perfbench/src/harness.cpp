#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace droplens::perfbench {

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace

// ---------------------------------------------------------------------------
// Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::wrong(const std::string& what) {
  correct_ = false;
  if (wrong_logged_++ < 8) std::cerr << "perfbench: WRONG: " << what << "\n";
}

void Report::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void Report::print() const {
  std::string cfg = "{";
  for (size_t i = 0; i < config_.size(); ++i) {
    if (i) cfg += ", ";
    cfg += json_string(config_[i].first) + ": " + json_string(config_[i].second);
  }
  cfg += "}";
  std::cout << "config " << cfg << "\n";

  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics_[i].name) +
           ": {\"value\": " + json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

// ---------------------------------------------------------------------------
// Statistics and host

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t LatencyHistogram::bucket(uint32_t ns) {
  if (ns < (1u << kSubBits)) return ns;
  const int e = std::bit_width(ns) - 1;
  return (size_t(e - kSubBits + 1) << kSubBits) + (ns >> (e - kSubBits)) -
         (1u << kSubBits);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0 || static_cast<double>(below + counts_[i]) <= rank) {
      below += counts_[i];
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1;
    if (i >= (size_t{1} << kSubBits)) {
      const int shift = static_cast<int>(i >> kSubBits) - 1;
      lower = std::ldexp(static_cast<double>((i & ((1u << kSubBits) - 1)) +
                                             (1u << kSubBits)),
                         shift);
      width = std::ldexp(1.0, shift);
    }
    return lower + width * (rank - static_cast<double>(below) + 0.5) /
                       static_cast<double>(counts_[i]);
  }
  return 0;
}

Windows::Windows(uint64_t from, uint64_t until)
    : from_ns(from),
      count(std::max<uint64_t>(1, (until - from) / 1'000'000'000)) {
  width_ns = std::max<uint64_t>(1, (until - from) / count);
}

size_t Windows::of(uint64_t t_ns) const {
  return std::min<size_t>(count - 1, (t_ns - from_ns) / width_ns);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t ObsPlane::counter(const std::string& name,
                           const std::vector<std::string>& skip) const {
  uint64_t total = 0;
  for (const obs::Registry::FamilySnapshot& f : registry.snapshot()) {
    if (f.name != name) continue;
    for (const obs::Registry::SeriesSnapshot& s : f.series) {
      bool skipped = false;
      for (const auto& [key, value] : s.labels) {
        skipped |= std::find(skip.begin(), skip.end(), value) != skip.end();
      }
      if (!skipped) total += s.counter;
    }
  }
  return total;
}

TransportCounts transport_counts(const ObsPlane& plane) {
  TransportCounts t;
  t.shed = plane.counter("droplens_transport_shed_total");
  t.disconnects = plane.counter("droplens_transport_disconnects_total",
                                {"peer_closed", "server_stop"});
  t.overload_rejects =
      plane.counter("droplens_transport_overload_rejects_total");
  return t;
}

double time_ns_per_call(size_t reps, const std::function<void()>& fn) {
  if (reps == 0) return 0;
  const uint64_t t0 = now_ns();
  for (size_t i = 0; i < reps; ++i) fn();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(reps);
}

void record_host(Report& report, const Options& options) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  report.config("workload", options.workload);
  report.config("seed", std::to_string(options.seed));
  report.config("seconds", json_number(options.seconds));
  report.config("trace", options.trace ? "1" : "0");
  report.config("smoke", options.smoke ? "1" : "0");
  report.config("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.config("cpu", cpu);
  report.config("build_type", PERFBENCH_BUILD_TYPE);
  report.config("compiler", __VERSION__);
}

namespace {

std::vector<int> thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

}  // namespace

CpuPlan CpuPlan::make() {
  std::vector<int> cpus = thread_cpus();
  if (cpus.empty()) cpus.push_back(0);
  CpuPlan plan;
  const size_t n_server = cpus.size() >= 4 ? 2 : 1;
  plan.server.assign(cpus.begin(), cpus.begin() + n_server);
  plan.workers.assign(cpus.begin() + (cpus.size() > 1 ? n_server : 0),
                      cpus.end());
  return plan;
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::cerr << "perfbench: sched_setaffinity failed; threads unpinned\n";
  }
}

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus)
    : saved_(thread_cpus()) {
  pin_thread(cpus);
}

ScopedAffinity::~ScopedAffinity() {
  if (!saved_.empty()) pin_thread(saved_);
}

ScratchDir::ScratchDir(const Options& options, const std::string& name)
    : path_(options.work_dir + "/" + name + "-" + std::to_string(::getpid())) {
  reset();
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void ScratchDir::reset() {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

uint64_t ScratchDir::bytes() const {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Server-side spans

void TracedService::arm(bool on) {
  if (on) {
    for (auto& s : spans_) s.clear();
    for (auto& h : pending_hash_) h.store(0, std::memory_order_relaxed);
  }
  armed_.store(on, std::memory_order_release);
}

void TracedService::await(size_t conn, uint64_t id, uint64_t hash) {
  pending_id_[conn].store(id, std::memory_order_relaxed);
  pending_hash_[conn].store(hash, std::memory_order_release);
}

std::string TracedService::serve(std::string_view message,
                                  obs::SpanContext& ctx) {
  if (!armed_.load(std::memory_order_acquire)) {
    return inner_.serve(message, ctx);
  }
  const uint64_t start = now_ns();
  std::string response = inner_.serve(message, ctx);
  const uint64_t end = now_ns();
  const uint64_t h = hash(message);
  for (size_t c = 0; c < kMaxConns; ++c) {
    if (pending_hash_[c].load(std::memory_order_acquire) == h) {
      spans_[c].push_back(
          {pending_id_[c].load(std::memory_order_relaxed), start, end});
      break;
    }
  }
  return response;
}

// ---------------------------------------------------------------------------
// Client

std::string RequestSource::check(const Request& request,
                                 const svc::QueryResponse& response) {
  if (response.answers.size() != request.expected.size()) {
    return "answer count " + std::to_string(response.answers.size()) +
           " != " + std::to_string(request.expected.size());
  }
  for (size_t i = 0; i < response.answers.size(); ++i) {
    if (!(response.answers[i] == request.expected[i])) {
      return "answer for " + request.queries[i].prefix.to_string() + " on " +
             request.queries[i].date.to_string() +
             " differs from the reference";
    }
  }
  return {};
}

std::string RequestSource::check(const Request& request,
                                 const svc::RangeResponse& response) {
  if (!(response == request.expected_range)) {
    return "range answer for " + request.range.prefix.to_string() + " over " +
           request.range.begin.to_string() + ".." +
           request.range.end.to_string() + " differs from the reference";
  }
  return {};
}

namespace {

std::unique_ptr<svc::TcpClientConnection> connect(uint16_t port) {
  return std::make_unique<svc::TcpClientConnection>("127.0.0.1", port,
                                                    svc::frame_size);
}

uint32_t ns32(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

/// One closed-loop connection: encode, round trip, decode, check, repeat
/// until `until_ns`. Frames that start before `measure_from_ns` warm the
/// system and are not recorded. Measured frames go into fixed-size
/// per-window histograms; only when `traced` is set (it then receives the
/// in-flight request for span matching) is every frame also kept as a
/// sample. A failed connection is replaced by a new one to `port`.
ClientResult run_client(std::unique_ptr<svc::TcpClientConnection> link,
                        uint16_t port, size_t conn, RequestSource& source,
                        TracedService* traced, uint64_t measure_from_ns,
                        uint64_t until_ns) {
  ClientResult out;
  const Windows windows(measure_from_ns, until_ns);
  out.windows.resize(windows.count);
  // Reserved up front so recording never copies the sample buffer in the
  // middle of the phase.
  if (traced) out.samples.reserve(size_t{1} << 21);
  std::string frame;
  for (uint32_t id = 0;; ++id) {
    const uint64_t t0 = now_ns();
    if (t0 >= until_ns) break;
    const bool measured = t0 >= measure_from_ns;
    uint32_t index = 0;
    const Request& request = source.next(index);
    frame = request.is_range() ? svc::encode_range_request(request.range)
                               : svc::encode_query_request(request.queries);
    const uint64_t t1 = now_ns();
    if (traced) traced->await(conn, id, TracedService::hash(frame));
    const uint64_t t1b = traced ? now_ns() : t1;
    std::string response;
    try {
      response = link->roundtrip(frame);
    } catch (const std::exception& e) {
      if (measured) ++out.errors;
      std::cerr << "perfbench: connection " << conn << ": " << e.what()
                << "\n";
      link = connect(port);  // throws (ends the run) if the server is gone
      continue;
    }
    const uint64_t t2 = now_ns();
    std::string problem;
    bool error_frame = false;
    svc::QueryResponse qr;
    svc::RangeResponse rr;
    try {
      const svc::FrameHeader header = svc::decode_header(response);
      const std::string_view payload = svc::frame_payload(response);
      if (header.type == svc::FrameType::kQueryResponse &&
          !request.is_range()) {
        qr = svc::decode_query_response(payload);
      } else if (header.type == svc::FrameType::kRangeResponse &&
                 request.is_range()) {
        rr = svc::decode_range_response(payload);
      } else {
        error_frame = true;
        problem = header.type == svc::FrameType::kError
                      ? "error frame: " + svc::decode_error(payload)
                      : "unexpected response frame type";
      }
    } catch (const std::exception& e) {
      error_frame = true;
      problem = std::string("undecodable response: ") + e.what();
    }
    const uint64_t t3 = now_ns();
    if (error_frame) {
      if (measured && ++out.errors == 1) {
        std::cerr << "perfbench: " << problem << "\n";
      }
      continue;
    }
    // Warm-up answers are checked too: a wrong answer anywhere is wrong.
    problem = request.is_range() ? source.check(request, rr)
                                 : source.check(request, qr);
    if (!problem.empty() && out.wrong++ == 0) out.first_wrong = problem;
    if (!measured) continue;
    const uint32_t frame_ns = ns32(t3 - t0 - (t1b - t1));
    WindowRecord& window = out.windows[windows.of(t0)];
    (request.is_range() ? out.range_ns : window.query_ns).record(frame_ns);
    window.lookups += request.lookups();
    ++out.frames;
    if (!traced) continue;
    FrameSample s;
    s.start_ns = t0;
    s.id = id;
    s.request = index;
    s.encode_ns = ns32(t1 - t0);
    s.roundtrip_ns = ns32(t2 - t1b);
    s.decode_ns = ns32(t3 - t2);
    s.lookups = static_cast<uint16_t>(request.lookups());
    s.range = request.is_range();
    out.samples.push_back(s);
  }
  return out;
}

}  // namespace

std::vector<std::unique_ptr<svc::TcpClientConnection>> connect_clients(
    uint16_t port, size_t n) {
  std::vector<std::unique_ptr<svc::TcpClientConnection>> links;
  for (size_t c = 0; c < n; ++c) {
    links.push_back(connect(port));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return links;
}

std::vector<ClientResult> run_clients(
    std::vector<std::unique_ptr<svc::TcpClientConnection>> links,
    uint16_t port, const std::vector<RequestSource*>& sources,
    TracedService* traced, uint64_t measure_from_ns, uint64_t until_ns) {
  std::vector<ClientResult> results(sources.size());
  std::vector<std::thread> threads;
  std::vector<std::string> failures(sources.size());
  const CpuPlan plan = CpuPlan::make();
  for (size_t c = 0; c < sources.size(); ++c) {
    threads.emplace_back([&, c] {
      // Client c runs on the last workers, after any follower thread.
      pin_thread({plan.worker(plan.workers.size() - sources.size() + c)});
      try {
        results[c] = run_client(std::move(links[c]), port, c, *sources[c],
                                traced, measure_from_ns, until_ns);
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < sources.size(); ++c) {
    if (!failures[c].empty()) {
      std::cerr << "perfbench: client " << c << " failed: " << failures[c]
                << "\n";
      ++results[c].errors;
    }
  }
  return results;
}

ServingSummary summarize(const std::vector<ClientResult>& clients,
                         uint64_t from_ns, uint64_t until_ns,
                         Report& report) {
  // Rates and query-frame percentiles are taken per one-second window and
  // reported as the median over windows, so a few seconds of interference
  // from outside the process do not move a run's numbers.
  const Windows windows(from_ns, until_ns);
  std::vector<WindowRecord> merged(windows.count);
  LatencyHistogram range_ns;
  ServingSummary s;
  uint64_t wrong = 0;
  for (const ClientResult& c : clients) {
    // A client that failed before its first frame recorded no windows.
    for (size_t w = 0; w < c.windows.size() && w < windows.count; ++w) {
      merged[w].query_ns.merge(c.windows[w].query_ns);
      merged[w].lookups += c.windows[w].lookups;
    }
    range_ns.merge(c.range_ns);
    s.frames += c.frames + c.errors;
    s.failed += c.errors + c.wrong;
    wrong += c.wrong;
    if (c.wrong) report.wrong(c.first_wrong);
  }
  if (wrong) {
    report.wrong(std::to_string(wrong) + " wrong answers in total");
  }
  std::vector<double> rate, p50, p90;
  for (const WindowRecord& w : merged) {
    rate.push_back(w.lookups / windows.width_s());
    p50.push_back(w.query_ns.quantile(0.5) * 1e-3);
    p90.push_back(w.query_ns.quantile(0.9) * 1e-3);
  }
  s.lookups_per_s = median(rate);
  s.frame_p50_us = median(p50);
  s.frame_p90_us = median(p90);
  s.range_p50_us = range_ns.quantile(0.5) * 1e-3;
  s.range_p99_us = range_ns.quantile(0.99) * 1e-3;
  report.count(s.frames, s.failed);
  return s;
}

TraceSummary summarize_trace(const std::vector<ClientResult>& clients,
                             const TracedService& traced) {
  TraceSummary t;
  std::vector<double> frame_ns;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::vector<double> server_ns;
  std::vector<double> overhead_ns;
  double decode_total = 0;
  double decoded_queries = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    std::vector<const ServerSpan*> by_id;
    for (const ServerSpan& span : traced.spans(c)) {
      if (span.id >= by_id.size()) by_id.resize(span.id + 1, nullptr);
      by_id[span.id] = &span;
    }
    for (const FrameSample& f : clients[c].samples) {
      if (f.id >= by_id.size() || !by_id[f.id]) continue;
      const ServerSpan& span = *by_id[f.id];
      const double server = static_cast<double>(span.end_ns - span.start_ns);
      t.served.push_back({span.start_ns, c, f.request});
      if (f.range) {
        t.range_server_us.push_back(server * 1e-3);
        continue;
      }
      const double overhead = static_cast<double>(f.roundtrip_ns) - server;
      t.server_us.push_back(server * 1e-3);
      t.overhead_us.push_back(overhead * 1e-3);
      frame_ns.push_back(static_cast<double>(f.frame_ns()));
      encode_ns.push_back(f.encode_ns);
      decode_ns.push_back(f.decode_ns);
      server_ns.push_back(server);
      overhead_ns.push_back(overhead);
      decode_total += f.decode_ns;
      decoded_queries += f.lookups;
    }
  }
  std::sort(t.served.begin(), t.served.end(),
            [](const TraceSummary::Served& a, const TraceSummary::Served& b) {
              return a.start_ns < b.start_ns;
            });
  if (decoded_queries > 0) {
    t.decode_response_ns_per_query = decode_total / decoded_queries;
  }
  const double frame = median(frame_ns);
  if (frame > 0) {
    const double parts = median(encode_ns) + median(overhead_ns) +
                         median(server_ns) + median(decode_ns);
    t.client_gap_pct = std::abs(frame - parts) / frame * 100.0;
  }
  return t;
}

void write_spans(const std::string& path,
                 const std::vector<ClientResult>& clients,
                 const TracedService& traced) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "conn,id,kind,start_ns,encode_ns,roundtrip_ns,decode_ns,"
         "server_start_ns,server_end_ns\n";
  for (size_t c = 0; c < clients.size(); ++c) {
    const std::vector<ServerSpan>& spans = traced.spans(c);
    size_t next = 0;
    for (const FrameSample& f : clients[c].samples) {
      while (next < spans.size() && spans[next].id < f.id) ++next;
      const bool matched = next < spans.size() && spans[next].id == f.id;
      out << c << ',' << f.id << ',' << (f.range ? "range" : "query") << ','
          << f.start_ns << ',' << f.encode_ns << ',' << f.roundtrip_ns << ','
          << f.decode_ns << ',' << (matched ? spans[next].start_ns : 0) << ','
          << (matched ? spans[next].end_ns : 0) << '\n';
    }
  }
}

}  // namespace droplens::perfbench
