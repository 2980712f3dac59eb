// Shared machinery of the droplens benchmark: options, the result record,
// statistics, the closed-loop TCP client, and the forwarding service that
// records server-side spans.
//
// Every workload drives the program only through its public API: an
// svc::EpollServer in front of a store-mode svc::Server, the SnapshotStore
// under it, stream::Publisher, and the analysis engine. Counters are read
// from the installed obs::Registry by family name.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/transport.hpp"

namespace droplens::perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny worlds and short runs with every correctness check on.
  bool smoke = false;
  /// Scratch space for snapshot directories and span files.
  std::string work_dir = ".bench_build/work";
};

/// What one run reports: the contract's result line plus the configuration
/// the numbers were measured under.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A wrong answer or a failed end-of-run check: the run is not correct.
  void wrong(const std::string& what);
  /// Configuration recorded with the result (workload shape, budgets).
  void config(const std::string& key, const std::string& value);

  void count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }

  /// The configuration line, then the result line (the last line of stdout).
  void print() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t wrong_logged_ = 0;
  std::vector<std::pair<std::string, std::string>> config_;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);
/// Peak resident set size of this process so far.
double peak_rss_mib();

/// Seeded 64-bit generator (splitmix64): the only randomness source.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return n ? next() % n : 0; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// The observability plane, configured the way droplensd configures it: an
/// installed registry and a default-armed flight recorder, both installed
/// before any server, store or publisher binds its instruments.
struct ObsPlane {
  obs::Registry registry;
  obs::ScopedRegistry scoped_registry{registry};
  obs::FlightRecorder recorder;
  obs::ScopedFlightRecorder scoped_recorder{recorder};

  /// Sum of every series of counter family `name`, skipping series that
  /// carry a label value listed in `skip`.
  uint64_t counter(const std::string& name,
                   const std::vector<std::string>& skip = {}) const;
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Where the measured threads run. Each gets CPUs of its own, so how the
/// scheduler happens to place a latency-bound loop does not change the
/// numbers from one run to the next: the transport's event threads share
/// the first two allowed CPUs, and each client (or follower) thread owns
/// one of the rest (wrapping around on hosts with fewer than four).
struct CpuPlan {
  std::vector<int> server;
  std::vector<int> workers;  // one per client or follower thread, in order
  static CpuPlan make();
  int worker(size_t i) const { return workers[i % workers.size()]; }
};

/// Restrict the calling thread to `cpus`.
void pin_thread(const std::vector<int>& cpus);

/// Threads created while this lives inherit `cpus` (the transport's event
/// threads); the creating thread's own mask is restored afterwards.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  std::vector<int> saved_;
};

// ---------------------------------------------------------------------------
// Client side.

/// One request of a workload's corpus and its reference answer.
struct Request {
  std::vector<svc::Query> queries;  // a query frame; empty for a range frame
  std::vector<svc::Answer> expected;
  svc::RangeQuery range;
  svc::RangeResponse expected_range;

  bool is_range() const { return queries.empty(); }
  uint32_t lookups() const {
    return is_range() ? static_cast<uint32_t>(range.end - range.begin + 1)
                      : static_cast<uint32_t>(queries.size());
  }
};

/// Latencies in ns, counted in log-linear buckets 1/128 of a power of two
/// wide (under 0.8% apart). Fixed size, so recording a phase costs the same
/// memory whatever the request rate.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}
  void record(uint32_t ns) {
    ++counts_[bucket(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Quantile q in [0, 1], with the rank placed linearly inside its bucket;
  /// 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kBuckets = size_t{32 - kSubBits + 1} << kSubBits;
  static size_t bucket(uint32_t ns);
  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

/// The one-second windows a measured phase [from_ns, until_ns) is cut into.
struct Windows {
  Windows(uint64_t from_ns, uint64_t until_ns);
  size_t of(uint64_t t_ns) const;
  double width_s() const { return static_cast<double>(width_ns) * 1e-9; }
  uint64_t from_ns;
  uint64_t width_ns;
  size_t count;
};

/// Client-side timings of one frame. The frame latency is the sum.
struct FrameSample {
  uint64_t start_ns = 0;
  uint32_t id = 0;       // request id on its connection (shared with spans)
  uint32_t request = 0;  // corpus index
  uint32_t encode_ns = 0;
  uint32_t roundtrip_ns = 0;
  uint32_t decode_ns = 0;
  uint16_t lookups = 0;
  bool range = false;
  uint64_t frame_ns() const {
    return uint64_t{encode_ns} + roundtrip_ns + decode_ns;
  }
};

/// Server-side span of one traced request, tagged with the client's id.
struct ServerSpan {
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The forwarding service the benchmark puts between the transport and the
/// Server. Unarmed it only forwards; armed, it times every serve() and tags
/// the span with the id of the client request it answers, found by matching
/// a hash of the frame bytes against each connection's in-flight request
/// (clients run closed loops, so each has at most one, and workloads keep
/// their connections' requests distinct).
class TracedService : public svc::Service {
 public:
  static constexpr size_t kMaxConns = 4;

  explicit TracedService(svc::Service& inner) : inner_(inner) {}

  /// Start (clearing earlier spans) or stop recording. Call while no
  /// request is in flight.
  void arm(bool on);
  /// Client `conn` is about to send a frame hashing to `hash` as request
  /// `id`.
  void await(size_t conn, uint64_t id, uint64_t hash);
  static uint64_t hash(std::string_view frame) {
    return std::hash<std::string_view>()(frame);
  }
  /// Spans recorded for connection `conn`, in request order. Read only
  /// after the transport has stopped serving.
  const std::vector<ServerSpan>& spans(size_t conn) const {
    return spans_[conn];
  }

  size_t message_size(std::string_view buffer) const override {
    return inner_.message_size(buffer);
  }
  std::string serve(std::string_view message) override {
    obs::SpanContext ctx;
    return serve(message, ctx);
  }
  std::string serve(std::string_view message, obs::SpanContext& ctx) override;
  std::string malformed_response(std::string_view head) override {
    return inner_.malformed_response(head);
  }
  svc::MessageClass classify(std::string_view message) const override {
    return inner_.classify(message);
  }
  std::string overload_response(std::string_view message) override {
    return inner_.overload_response(message);
  }
  std::string timeout_response() override { return inner_.timeout_response(); }

 private:
  svc::Service& inner_;
  std::atomic<bool> armed_{false};
  std::array<std::atomic<uint64_t>, kMaxConns> pending_hash_{};
  std::array<std::atomic<uint64_t>, kMaxConns> pending_id_{};
  // spans_[c] is written only by the event thread serving connection c.
  std::array<std::vector<ServerSpan>, kMaxConns> spans_;
};

/// What one client measured in one window of a phase.
struct WindowRecord {
  LatencyHistogram query_ns;  // query-frame latency
  double lookups = 0;         // answered queries (range days included)
};

/// Everything one client connection measured.
struct ClientResult {
  std::vector<WindowRecord> windows;  // one per Windows of the phase
  LatencyHistogram range_ns;          // range-frame latency, whole phase
  uint64_t frames = 0;                // measured frames answered
  /// Every measured frame, kept only in a traced phase (for span matching).
  std::vector<FrameSample> samples;
  uint64_t errors = 0;               // error frames and transport failures
  uint64_t wrong = 0;                // answers that differ from the reference
  std::string first_wrong;
};

/// What a client needs from its workload: the next request and a check of
/// the decoded answers. Static corpora use CorpusSource.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual const Request& next(uint32_t& index) = 0;
  /// Empty when `response` is right for `request`; else what was wrong.
  virtual std::string check(const Request& request,
                            const svc::QueryResponse& response);
  virtual std::string check(const Request& request,
                            const svc::RangeResponse& response);
};

/// Cycles through a fixed corpus whose expected answers are precomputed.
class CorpusSource : public RequestSource {
 public:
  CorpusSource(const std::vector<Request>& corpus, size_t start)
      : corpus_(corpus), next_(start % corpus.size()) {}
  const Request& next(uint32_t& index) override {
    index = static_cast<uint32_t>(next_);
    const Request& r = corpus_[next_];
    next_ = (next_ + 1) % corpus_.size();
    return r;
  }

 private:
  const std::vector<Request>& corpus_;
  size_t next_;
};

/// Open `n` client connections one at a time, each accept settled before
/// the next connect, so the transport places them the same way every run.
std::vector<std::unique_ptr<svc::TcpClientConnection>> connect_clients(
    uint16_t port, size_t n);

/// Run one client per source (links[i] serves sources[i]) concurrently;
/// returns their results.
std::vector<ClientResult> run_clients(
    std::vector<std::unique_ptr<svc::TcpClientConnection>> links,
    uint16_t port, const std::vector<RequestSource*>& sources,
    TracedService* traced, uint64_t measure_from_ns, uint64_t until_ns);

/// The serving metrics every workload reports from the client results of
/// a phase [from_ns, until_ns): lookups_per_s, frame_p50_us, frame_p90_us
/// (query frames), range latency, and the attempted/failed counts and wrong
/// answers.
struct ServingSummary {
  double lookups_per_s = 0;
  double frame_p50_us = 0;
  double frame_p90_us = 0;
  double range_p50_us = 0;
  double range_p99_us = 0;
  uint64_t frames = 0;
  uint64_t failed = 0;
};
ServingSummary summarize(const std::vector<ClientResult>& clients,
                         uint64_t from_ns, uint64_t until_ns,
                         Report& report);

/// Per-layer numbers of a traced serving phase: client codec, server span,
/// transport overhead, and the reconciliation of the client frame latency
/// against its parts.
struct TraceSummary {
  std::vector<double> server_us;        // query frames
  std::vector<double> range_server_us;  // range frames
  std::vector<double> overhead_us;      // round trip minus server span
  double decode_response_ns_per_query = 0;
  double client_gap_pct = 0;  // frame vs encode + overhead + server + decode
  /// (server start, connection, corpus index), in server order.
  struct Served {
    uint64_t start_ns;
    size_t conn;
    uint32_t request;
  };
  std::vector<Served> served;
};
TraceSummary summarize_trace(const std::vector<ClientResult>& clients,
                             const TracedService& traced);

/// Append the traced phase's spans, one line per request, to `path`.
void write_spans(const std::string& path,
                 const std::vector<ClientResult>& clients,
                 const TracedService& traced);

/// Transport counters of a run, read from the registry by family name.
struct TransportCounts {
  uint64_t shed = 0;
  uint64_t disconnects = 0;  // abnormal: every reason but peer/server close
  uint64_t overload_rejects = 0;
};
TransportCounts transport_counts(const ObsPlane& plane);

/// Mean nanoseconds per call of `fn` over `reps` calls.
double time_ns_per_call(size_t reps, const std::function<void()>& fn);

/// Describe the host and build for the result record.
void record_host(Report& report, const Options& options);

/// A fresh, empty directory under the work dir (removed by the destructor).
class ScratchDir {
 public:
  ScratchDir(const Options& options, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }
  /// Remove and recreate (empty) the directory.
  void reset();
  uint64_t bytes() const;

 private:
  std::string path_;
};

}  // namespace droplens::perfbench
