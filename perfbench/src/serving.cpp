#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "workloads.hpp"

namespace droplens::perfbench {

volatile size_t g_sink = 0;

svc::TransportOptions query_listener() {
  svc::TransportOptions o;
  o.name = "query";
  return o;
}

double warmup_seconds(const Options& options) {
  return std::min(1.0, options.seconds / 5);
}

PhaseResult run_phase(uint16_t port, const std::vector<RequestSource*>& sources,
                      TracedService& traced, bool armed, double warmup_s,
                      double seconds) {
  PhaseResult phase;
  auto links = connect_clients(port, sources.size());
  if (armed) traced.arm(true);
  phase.from_ns = now_ns() + static_cast<uint64_t>(warmup_s * 1e9);
  phase.until_ns = phase.from_ns + static_cast<uint64_t>(seconds * 1e9);
  phase.clients =
      run_clients(std::move(links), port, sources, armed ? &traced : nullptr,
                  phase.from_ns, phase.until_ns);
  if (armed) traced.arm(false);
  return phase;
}

svc::SnapshotStore::Stats stats_delta(const svc::SnapshotStore::Stats& before,
                                      const svc::SnapshotStore::Stats& after) {
  svc::SnapshotStore::Stats d;
  d.resident_hits = after.resident_hits - before.resident_hits;
  d.loads = after.loads - before.loads;
  d.delta_loads = after.delta_loads - before.delta_loads;
  d.load_failures = after.load_failures - before.load_failures;
  d.compiles = after.compiles - before.compiles;
  d.saves = after.saves - before.saves;
  d.evictions = after.evictions - before.evictions;
  return d;
}

TraceSummary serving_layers(Values& layers, const PhaseResult& untraced,
                            const PhaseResult& traced,
                            const TracedService& service,
                            const ObsPlane& plane, Report& report,
                            const svc::SnapshotStore::Stats& store_delta) {
  const ServingSummary before = summarize(untraced.clients, untraced.from_ns,
                                          untraced.until_ns, report);
  const ServingSummary after =
      summarize(traced.clients, traced.from_ns, traced.until_ns, report);
  TraceSummary t = summarize_trace(traced.clients, service);

  layers["range_p50_us"] = after.range_p50_us;
  layers["range_p99_us"] = after.range_p99_us;
  const uint64_t frames = before.frames + after.frames;
  layers["error_rate"] =
      frames ? static_cast<double>(before.failed + after.failed) /
                   static_cast<double>(frames)
             : 0.0;
  layers["svc.server.serve_us_p50"] = quantile(t.server_us, 0.5);
  layers["svc.server.serve_us_p99"] = quantile(t.server_us, 0.99);
  layers["svc.server.range_us"] = quantile(t.range_server_us, 0.5);
  layers["svc.transport.overhead_us_p50"] = quantile(t.overhead_us, 0.5);
  layers["svc.transport.overhead_us_p99"] = quantile(t.overhead_us, 0.99);
  const TransportCounts tc = transport_counts(plane);
  layers["svc.transport.shed"] = static_cast<double>(tc.shed);
  layers["svc.transport.disconnects"] = static_cast<double>(tc.disconnects);
  layers["svc.transport.overload_rejects"] =
      static_cast<double>(tc.overload_rejects);
  layers["svc.protocol.decode_response_ns"] = t.decode_response_ns_per_query;

  const size_t gets = store_delta.resident_hits + store_delta.loads +
                      store_delta.delta_loads + store_delta.compiles +
                      store_delta.load_failures;
  layers["svc.store.hit_ratio"] =
      gets ? static_cast<double>(store_delta.resident_hits) /
                 static_cast<double>(gets)
           : 0.0;
  layers["svc.store.evictions"] = static_cast<double>(store_delta.evictions);
  layers["svc.store.delta_loads"] =
      static_cast<double>(store_delta.delta_loads);

  if (before.frame_p50_us > 0) {
    layers["trace.overhead_pct"] =
        (after.frame_p50_us / before.frame_p50_us - 1.0) * 100.0;
  }
  return t;
}

void protocol_layers(Values& layers,
                     const std::vector<const Request*>& sample) {
  std::vector<std::string> payloads;
  std::vector<svc::QueryResponse> responses;
  double queries = 0;
  for (const Request* r : sample) {
    if (r->is_range()) continue;
    payloads.push_back(std::string(
        svc::frame_payload(svc::encode_query_request(r->queries))));
    svc::QueryResponse resp;
    resp.date = r->queries.front().date;
    resp.answers = r->expected;
    responses.push_back(std::move(resp));
    queries += static_cast<double>(r->queries.size());
  }
  if (payloads.empty()) return;
  // Enough passes that each codec runs for tens of milliseconds.
  const size_t passes = std::max<size_t>(1, 200'000 / static_cast<size_t>(queries));
  size_t sink = 0;
  uint64_t t0 = now_ns();
  for (size_t p = 0; p < passes; ++p) {
    for (const std::string& payload : payloads) {
      sink += svc::decode_query_request(payload).size();
    }
  }
  const double total = queries * static_cast<double>(passes);
  layers["svc.protocol.decode_request_ns"] =
      static_cast<double>(now_ns() - t0) / total;
  t0 = now_ns();
  for (size_t p = 0; p < passes; ++p) {
    for (const svc::QueryResponse& resp : responses) {
      sink += svc::encode_query_response(resp).size();
    }
  }
  layers["svc.protocol.encode_response_ns"] =
      static_cast<double>(now_ns() - t0) / total;
  g_sink = sink;
}

double reconcile_gap(const TraceSummary& trace, double replay_server_us) {
  const double server = median(trace.server_us);
  const double server_gap =
      server > 0 ? std::abs(server - replay_server_us) / server * 100.0 : 0.0;
  return std::max(server_gap, trace.client_gap_pct);
}

std::vector<std::vector<Request>> distinct_corpora(
    size_t conns, size_t per_conn, Rng& rng,
    const std::function<Request(Rng&, size_t)>& make) {
  std::vector<std::vector<Request>> corpora(conns);
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < per_conn; ++i) {
    for (size_t c = 0; c < conns; ++c) {
      while (true) {
        Request r = make(rng, i);
        std::string bytes = r.is_range()
                                ? svc::encode_range_request(r.range)
                                : svc::encode_query_request(r.queries);
        if (seen.insert(std::move(bytes)).second) {
          corpora[c].push_back(std::move(r));
          break;
        }
      }
    }
  }
  return corpora;
}

}  // namespace droplens::perfbench
