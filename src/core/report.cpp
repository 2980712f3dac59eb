#include "core/report.hpp"

#include <optional>
#include <ostream>

#include "core/alarms.hpp"
#include "core/as0_analysis.hpp"
#include "core/case_study.hpp"
#include "core/classification.hpp"
#include "core/data_quality.hpp"
#include "core/defenses.hpp"
#include "core/drop_index.hpp"
#include "core/engine.hpp"
#include "core/irr_analysis.hpp"
#include "core/maxlength.hpp"
#include "core/roa_status.hpp"
#include "core/rpki_uptake.hpp"
#include "core/serial_hijackers.hpp"
#include "core/snapshot_cache.hpp"
#include "core/visibility.hpp"
#include "obs/flight_recorder.hpp"
#include "util/text_table.hpp"
#include "util/thread_pool.hpp"

namespace droplens::core {

namespace {

void heading(std::ostream& out, const std::string& title) {
  out << "\n## " << title << "\n\n";
}

}  // namespace

int write_report(std::ostream& out, const Study& base_study,
                 const ReportOptions& options) {
  // The whole run as one pipeline trace; each analysis below records its
  // own, so `full_report --trace` lists the run next to its stages.
  obs::Span span("core.write_report");
  // Attach the engine unless the caller brought their own: one thread pool
  // (options.threads; 0 defers to DROPLENS_THREADS / hardware_concurrency,
  // 1 forces the sequential path) and one snapshot cache shared by every
  // analysis below. Output is byte-identical for any thread count — the
  // analyses only ever write to index-addressed buffers before aggregating
  // sequentially.
  std::optional<util::ThreadPool> pool;
  std::optional<SnapshotCache> cache;
  Study study = base_study;
  if (!study.pool) {
    pool.emplace(options.threads);
    study.pool = &*pool;
  }
  if (!study.snapshots) {
    cache.emplace(study.registry, study.fleet, study.roas, study.drop,
                  &study.irr);
    study.snapshots = &*cache;
  }

  int sections = 0;
  DropIndex index = DropIndex::build(study);

  out << "# DROP-lens study report (" << study.window_begin.to_string()
      << " .. " << study.window_end.to_string() << ")\n";

  // --- Composition --------------------------------------------------------
  heading(out, "The DROP list");
  ++sections;
  ClassificationResult cls = analyze_classification(study, index);
  out << "Prefixes ever listed: " << cls.total_prefixes << "; with SBL record: "
      << cls.with_record << " ("
      << util::percent(cls.with_record, cls.total_prefixes) << "); "
      << cls.incident_prefixes << " incident prefixes carrying "
      << util::percent(static_cast<double>(cls.incident_space.size()),
                       static_cast<double>(cls.total_space.size()))
      << " of the listed space.\n\n";
  util::TextTable cat_table({"category", "prefixes", "space /8-eq"});
  for (const CategoryStats& s : cls.per_category) {
    cat_table.add_row({std::string(drop::full_name(s.category)),
                       std::to_string(s.total_prefixes()),
                       util::fixed(s.space.slash8_equivalents(), 4)});
  }
  cat_table.print(out);

  // --- Blocklisting effects -----------------------------------------------
  heading(out, "Effects of blocklisting");
  ++sections;
  VisibilityResult vis = analyze_visibility(study, index);
  out << "Withdrawn within 30 days: "
      << util::percent(vis.withdrawn_within_30d, vis.routed_at_listing)
      << " of " << vis.routed_at_listing
      << " prefixes routed at listing. Peers filtering DROP: "
      << vis.filtering_peers << ".\n";
  RpkiUptakeResult uptake = analyze_rpki_uptake(study, index);
  out << "RPKI signing rate (never on DROP / removed / present): "
      << util::percent(uptake.never_total.signed_, uptake.never_total.total)
      << " / "
      << util::percent(uptake.removed_total.signed_,
                       uptake.removed_total.total)
      << " / "
      << util::percent(uptake.present_total.signed_,
                       uptake.present_total.total)
      << ".\n";

  // --- IRR ------------------------------------------------------------
  heading(out, "Effectiveness of the IRR");
  ++sections;
  IrrResult irr = analyze_irr(study, index);
  out << irr.prefixes_with_route_object << " prefixes ("
      << util::percent(irr.prefixes_with_route_object, irr.drop_prefix_count)
      << ") had route objects covering "
      << util::percent(static_cast<double>(irr.route_object_space.size()),
                       static_cast<double>(irr.drop_space.size()))
      << " of the DROP space. " << irr.hijacker_asn_in_route_object
      << " hijacked prefixes carried the hijacker's own ASN in the IRR ("
      << irr.distinct_hijacking_asns << " ASNs, top-3 ORG-IDs holding "
      << irr.top3_org_prefixes << ").\n";

  // --- RPKI ------------------------------------------------------------
  heading(out, "Effectiveness of RPKI");
  ++sections;
  CaseStudyResult cs = analyze_case_study(study, index);
  out << cs.signed_before_listing << " of " << cs.hijacked_prefixes
      << " hijacked prefixes were RPKI-signed before listing; "
      << cs.attacker_controlled_roas
      << " ROAs tracked the attacker's origin changes.\n";
  for (const RpkiValidHijack& h : cs.valid_hijacks) {
    out << "RPKI-VALID HIJACK: " << h.prefix.to_string() << " (ROA "
        << h.roa_asn.to_string() << "), unrouted since "
        << h.unrouted_since.to_string() << ", re-originated "
        << h.rehijacked_on.to_string() << "; " << h.siblings.size()
        << " sibling prefixes, " << h.siblings_on_drop << " on DROP.\n";
    if (options.include_case_timeline) {
      util::TextTable t({"prefix", "from", "to", "path", "RPKI", "DROP"});
      for (const TimelineRow& row : h.timeline) {
        t.add_row({row.prefix.to_string(), row.begin.to_string(),
                   row.end == net::DateRange::unbounded()
                       ? "..."
                       : row.end.to_string(),
                   row.path, row.rpki_valid ? "VALID" : "-",
                   row.on_drop ? row.drop_date.to_string() : "-"});
      }
      t.print(out);
    }
  }
  RoaStatusResult roa = analyze_roa_status(study);
  out << "Signed space " << util::fixed(roa.first().signed_slash8, 1)
      << " -> " << util::fixed(roa.last().signed_slash8, 1) << " /8-eq ("
      << util::fixed(roa.first().percent_roas_routed(), 1) << "% -> "
      << util::fixed(roa.last().percent_roas_routed(), 1)
      << "% routed); signed+unrouted "
      << util::fixed(roa.last().signed_unrouted_nonas0_slash8, 2)
      << " /8-eq; allocated+unrouted+unsigned "
      << util::fixed(roa.last().alloc_unrouted_no_roa_slash8, 2)
      << " /8-eq.\n";
  if (options.include_series) {
    out << "\ndate,signed,pct_routed,signed_unrouted,unsigned_unrouted\n";
    for (const RoaStatusSample& s : roa.series) {
      if (s.degraded) continue;  // counted in the data-quality section
      out << s.date.to_string() << ',' << util::fixed(s.signed_slash8, 2)
          << ',' << util::fixed(s.percent_roas_routed(), 2) << ','
          << util::fixed(s.signed_unrouted_nonas0_slash8, 2) << ','
          << util::fixed(s.alloc_unrouted_no_roa_slash8, 2) << '\n';
    }
  }

  // --- AS0 --------------------------------------------------------------
  heading(out, "AS0 policies");
  ++sections;
  As0Result as0 = analyze_as0(study, index);
  out << as0.unallocated_listings.size()
      << " unallocated prefixes appeared on DROP (" << as0.listed_after_policy
      << " after an RIR AS0 policy was live); "
      << as0.peers_apparently_filtering_as0
      << " peers filter with the AS0 TALs while each carries ~"
      << util::fixed(as0.mean_as0_rejectable, 0)
      << " routes those TALs would reject.\n";

  // --- Extensions ---------------------------------------------------------
  if (options.include_extensions) {
    heading(out, "Extensions");
    ++sections;
    DefenseMatrixResult def = analyze_defenses(study, index);
    out << "Defense matrix over " << def.total() << " hijacks: ROV blocks "
        << def.blocked_by_defense[static_cast<size_t>(Defense::kRov)]
        << ", +operator AS0 "
        << def.blocked_by_defense[static_cast<size_t>(
               Defense::kRovOperatorAs0)]
        << ", +RIR AS0 "
        << def.blocked_by_defense[static_cast<size_t>(Defense::kRovRirAs0)]
        << ", path-end "
        << def.blocked_by_defense[static_cast<size_t>(Defense::kPathEnd)]
        << ", BGPsec "
        << def.blocked_by_defense[static_cast<size_t>(Defense::kBgpsec)]
        << "; " << def.blocked_by_nothing << " blocked by nothing.\n";
    MaxLengthResult ml = analyze_maxlength(study, study.window_end);
    out << "maxLength ROAs: " << ml.roas_with_maxlength << " ("
        << util::percent(ml.roas_with_maxlength, ml.roas_total) << "), "
        << util::percent(ml.vulnerable, ml.roas_with_maxlength)
        << " vulnerable to forged-origin sub-prefix hijacks.\n";
    SerialHijackerResult sh = analyze_serial_hijackers(study, index);
    out << "Serial-hijacker profiling flags " << sh.flagged.size()
        << " origin ASes out of " << sh.origins_profiled << ".\n";
    AlarmResult al = analyze_alarms(study, index);
    out << "A PHAS-style monitor alarms on "
        << util::percent(al.alarm_coverage(), 1.0) << " of DROP hijacks; "
        << al.drop_hijacks_stealthy << " were stealthy.\n";
  }

  // --- Data quality -------------------------------------------------------
  // Present whenever the study carries an ingestion ledger, so degraded
  // input is always visible next to the numbers computed from it.
  if (study.quality) {
    heading(out, "Data quality");
    ++sections;
    study.quality->render(out);
    size_t total_samples = roa.series.size();
    out << "Degraded samples: roa_status " << roa.degraded_samples << "/"
        << total_samples << ", free pools " << as0.degraded_samples << "/"
        << as0.pool_series.size() << ".\n";
    if (study.quality->clean()) {
      out << "All substrates ingested clean.\n";
    }
  }
  return sections;
}

}  // namespace droplens::core
