// The benchmark's metric catalogue. BENCHMARK.json names exactly these, in
// this order; `run.py --smoke` checks that the two agree.
//
// End-to-end metrics are reported by every workload's untraced run, so each
// is one that every workload exercises. The per-layer metrics come from the
// traced run; a layer a workload does not exercise reports 0 there.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace droplens::perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"lookups_per_s", "1/s"},
    {"frame_p50_us", "us"},
    {"frame_p90_us", "us"},
};

inline constexpr MetricDef kPerLayer[] = {
    // Workload-level numbers that only some workloads have.
    {"range_p50_us", "us"},
    {"range_p99_us", "us"},
    {"ingest_events_per_s", "1/s"},
    {"staleness_p50_ms", "ms"},
    {"staleness_p90_ms", "ms"},
    {"store_kib_per_day", "KiB"},
    {"error_rate", "ratio"},
    // sim
    {"sim.generate_s", "s"},
    // core (the analyze_* calls, in write_report's order, on one cache)
    {"core.classification_ms", "ms"},
    {"core.visibility_ms", "ms"},
    {"core.rpki_uptake_ms", "ms"},
    {"core.irr_ms", "ms"},
    {"core.case_study_ms", "ms"},
    {"core.roa_status_ms", "ms"},
    {"core.as0_ms", "ms"},
    {"core.defenses_ms", "ms"},
    {"core.serial_hijackers_ms", "ms"},
    {"core.alarms_ms", "ms"},
    {"core.rov_adoption_ms", "ms"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_misses", "count"},
    // svc.compile
    {"svc.compile_ms", "ms"},
    // svc.snapshot_io
    {"svc.snapshot_io.save_ms", "ms"},
    {"svc.snapshot_io.delta_save_ms", "ms"},
    {"svc.snapshot_io.load_ms", "ms"},
    {"svc.snapshot_io.delta_load_ms", "ms"},
    // svc.snapshot_store
    {"svc.store.hit_ns", "ns"},
    {"svc.store.miss_us_p50", "us"},
    {"svc.store.miss_us_p99", "us"},
    {"svc.store.hit_ratio", "ratio"},
    {"svc.store.evictions", "count"},
    {"svc.store.delta_loads", "count"},
    // svc.snapshot (net substrates beneath)
    {"svc.snapshot.lookup_batch_ns", "ns"},
    {"svc.snapshot.lookup_ns", "ns"},
    // svc.protocol (per query)
    {"svc.protocol.decode_request_ns", "ns"},
    {"svc.protocol.encode_response_ns", "ns"},
    {"svc.protocol.decode_response_ns", "ns"},
    // svc.server
    {"svc.server.serve_us_p50", "us"},
    {"svc.server.serve_us_p99", "us"},
    {"svc.server.range_us", "us"},
    {"svc.server.publish_us", "us"},
    // svc.epoll_transport
    {"svc.transport.overhead_us_p50", "us"},
    {"svc.transport.overhead_us_p99", "us"},
    {"svc.transport.shed", "count"},
    {"svc.transport.disconnects", "count"},
    {"svc.transport.overload_rejects", "count"},
    // stream
    {"stream.apply_ns", "ns"},
    {"stream.alarm_ns", "ns"},
    {"stream.append_ns", "ns"},
    {"stream.compact_ms", "ms"},
    {"stream.rejected", "count"},
    // the benchmark's own tracing
    {"trace.overhead_pct", "%"},
    {"trace.reconcile_gap_pct", "%"},
};

/// Metric values by name; names absent from the map report 0.
using Values = std::map<std::string, double>;

/// Add every metric of `defs` to `report`, in catalogue order.
template <size_t N>
void emit(Report& report, const MetricDef (&defs)[N], const Values& values) {
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    report.metric(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
}

}  // namespace droplens::perfbench
