// The two workloads and the serving-phase machinery they share.
#pragma once

#include <functional>
#include <vector>

#include "core/drop_index.hpp"
#include "core/study.hpp"
#include "harness.hpp"
#include "metrics.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/snapshot_store.hpp"

namespace droplens::perfbench {

/// Paper-scale delta directory behind a disk-only store with a small LRU;
/// single-query frames at recency-skewed dates plus multi-day range frames.
Report run_window(const Options& options);
/// Paper-scale live follower compacting and publishing the head while one
/// connection queries the head date.
Report run_follow(const Options& options);

/// Replayed results land here so the timed calls cannot be optimized away.
extern volatile size_t g_sink;

/// The query listener, configured as droplensd configures its query front
/// (default limits, default event threads).
svc::TransportOptions query_listener();

/// Wall time of a set-up with the benchmark's own bookkeeping (corpus and
/// reference building) taken out.
class SetupClock {
 public:
  SetupClock() : start_(now_ns()) {}
  /// Run `fn` without counting its time.
  void exclude(const std::function<void()>& fn) {
    const uint64_t t0 = now_ns();
    fn();
    excluded_ += now_ns() - t0;
  }
  double seconds() const {
    return static_cast<double>(now_ns() - start_ - excluded_) * 1e-9;
  }

 private:
  uint64_t start_;
  uint64_t excluded_ = 0;
};

/// One serving phase: every source runs a closed loop against `port`.
struct PhaseResult {
  std::vector<ClientResult> clients;
  uint64_t from_ns = 0;   // start of the measured window
  uint64_t until_ns = 0;  // end of the measured window
  double seconds() const { return seconds_between(from_ns, until_ns); }
};

/// Warm up for `warmup_s`, then measure for `seconds`. A traced phase arms
/// `traced` for its whole length.
PhaseResult run_phase(uint16_t port, const std::vector<RequestSource*>& sources,
                      TracedService& traced, bool armed, double warmup_s,
                      double seconds);

/// Warm-up before the untraced phase.
double warmup_seconds(const Options& options);

/// The store's counters over a phase (SnapshotStore::Stats difference).
svc::SnapshotStore::Stats stats_delta(const svc::SnapshotStore::Stats& before,
                                      const svc::SnapshotStore::Stats& after);

/// Per-layer numbers every serving workload derives from its traced phase:
/// server spans, transport overhead and counters, client decode, store
/// counters, error rate, range latency and the tracing overhead against the
/// untraced phase. Returns the trace summary for workload-specific replays.
TraceSummary serving_layers(Values& layers, const PhaseResult& untraced,
                            const PhaseResult& traced,
                            const TracedService& service,
                            const ObsPlane& plane, Report& report,
                            const svc::SnapshotStore::Stats& store_delta);

/// Replay the protocol codec on a workload's requests: per-query ns of
/// decode_query_request and encode_query_response.
void protocol_layers(Values& layers, const std::vector<const Request*>& sample);

/// Median server time of a query frame against the replayed parts of one
/// (decode, store get, lookup, encode); returns the larger of that gap and
/// the client-side gap, in percent.
double reconcile_gap(const TraceSummary& trace, double replay_server_us);

/// A set of distinct requests for `conns` connections: `make` produces
/// candidates from the shared generator; duplicates (same frame bytes) are
/// drawn again so span matching by frame hash is unambiguous.
std::vector<std::vector<Request>> distinct_corpora(
    size_t conns, size_t per_conn, Rng& rng,
    const std::function<Request(Rng&, size_t)>& make);

}  // namespace droplens::perfbench
