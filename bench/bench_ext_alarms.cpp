// Extension: PHAS-style hijack alarms over the study window. Shows how much
// of the DROP hijack activity a monitoring system would have caught — and
// how much was stealthy because the space was unmonitored (previously
// unannounced) or the attacker re-used the historic origin ASN, the evasion
// §6.1's case study demonstrates.
//
// --crosscheck additionally replays the same history through the *online*
// monitor (sim::EventReplayer -> stream::AlarmMonitor) and asserts the two
// paths produce the exact same AlarmResult — same alarms in the same order,
// same coverage counters. Exit 1 on any divergence.
#include <cstring>
#include <map>

#include "bench/common.hpp"
#include "core/alarms.hpp"
#include "sim/event_replayer.hpp"
#include "stream/alarm_monitor.hpp"

using namespace droplens;

namespace {

int crosscheck(const bench::Harness& h, const core::AlarmResult& batch) {
  std::cerr << "[crosscheck: replaying event stream through the online "
               "monitor...]\n";
  sim::EventReplayer replayer(*h.world);
  stream::AlarmMonitor::Config config;
  config.window_begin = h.study->window_begin;
  config.window_end = h.study->window_end;
  config.drop = &h.world->drop;
  stream::AlarmMonitor monitor(config);
  for (const stream::Event& e : replayer.events()) monitor.on_event(e);
  core::AlarmResult online = monitor.result(*h.study, h.index);

  bool ok = online.alarms.size() == batch.alarms.size();
  for (size_t i = 0; ok && i < online.alarms.size(); ++i) {
    const core::Alarm& a = online.alarms[i];
    const core::Alarm& b = batch.alarms[i];
    ok = a.kind == b.kind && a.prefix == b.prefix &&
         a.monitored == b.monitored && a.when == b.when &&
         a.new_origin == b.new_origin && a.on_drop == b.on_drop;
  }
  ok = ok && online.drop_hijacks_total == batch.drop_hijacks_total &&
       online.drop_hijacks_alarmed == batch.drop_hijacks_alarmed &&
       online.drop_hijacks_stealthy == batch.drop_hijacks_stealthy;

  if (!ok) {
    std::cout << "\ncrosscheck: FAIL — online monitor diverges from the "
                 "batch replay ("
              << online.alarms.size() << " vs " << batch.alarms.size()
              << " alarms; coverage " << online.drop_hijacks_alarmed << "/"
              << online.drop_hijacks_total << " vs "
              << batch.drop_hijacks_alarmed << "/" << batch.drop_hijacks_total
              << ")\n";
    return 1;
  }
  std::cout << "\ncrosscheck: OK — online monitor reproduced all "
            << batch.alarms.size() << " alarms and coverage counters ("
            << replayer.size() << " events replayed)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_crosscheck = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--crosscheck") == 0) do_crosscheck = true;
  }
  bench::Harness h = bench::Harness::make(argc, argv, {"--crosscheck"});
  core::AlarmResult r = core::analyze_alarms(*h.study, h.index);

  std::map<core::AlarmKind, int> by_kind;
  std::map<core::AlarmKind, int> by_kind_on_drop;
  for (const core::Alarm& a : r.alarms) {
    ++by_kind[a.kind];
    if (a.on_drop) ++by_kind_on_drop[a.kind];
  }

  std::cout << "\n=== Hijack-alarm replay (PHAS-style monitor) ===\n";
  util::TextTable table({"alarm kind", "alarms", "on DROP prefixes"});
  for (core::AlarmKind k :
       {core::AlarmKind::kNewOrigin, core::AlarmKind::kMoas,
        core::AlarmKind::kNewSubPrefix}) {
    table.add_row({std::string(core::to_string(k)),
                   std::to_string(by_kind[k]),
                   std::to_string(by_kind_on_drop[k])});
  }
  table.print(std::cout);

  std::cout << "\nDROP hijack announcements:      " << r.drop_hijacks_total
            << "\n  raised an alarm:              " << r.drop_hijacks_alarmed
            << " (" << util::percent(r.alarm_coverage(), 1.0) << ")"
            << "\n  stealthy (unmonitored space / historic origin): "
            << r.drop_hijacks_stealthy << "\n";
  std::cout << "\nReading: detection systems watch *announced* prefixes, so "
               "attackers who target abandoned, never-announced space — the "
               "dominant pattern on DROP — trip nothing. The 132.255.0.0/22 "
               "re-origination with the ROA's own ASN is likewise silent.\n";
  if (do_crosscheck) return crosscheck(h, r);
  return 0;
}
