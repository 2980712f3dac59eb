#include "core/classification.hpp"

#include <algorithm>
#include <vector>

#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"

namespace droplens::core {

namespace {

// Tally one entry into `r`. Shared by the sequential path and the per-chunk
// partials of the parallel path.
void tally(ClassificationResult& r, const DropEntry& e) {
  ++r.total_prefixes;
  r.total_space.insert(e.prefix);
  if (e.has_record) {
    ++r.with_record;
    if (e.cls.malicious_asn) {
      ++r.with_asn_annotation;
      if (e.is(drop::Category::kHijacked)) ++r.hijacked_with_asn;
    }
    size_t keywords = e.cls.matched_keywords.size();
    if (keywords == 0) {
      ++r.records_no_keyword;
    } else if (keywords == 1) {
      ++r.records_one_keyword;
    } else {
      ++r.records_two_keywords;
    }
  }
  if (e.categories.count() > 1) ++r.multi_label;
  if (e.incident) {
    ++r.incident_prefixes;
    r.incident_space.insert(e.prefix);
  }
  for (drop::Category c : drop::kAllCategories) {
    if (!e.is(c)) continue;
    CategoryStats& stats = r.per_category[static_cast<size_t>(c)];
    if (e.categories.exclusive(c)) {
      ++stats.exclusive_prefixes;
    } else {
      ++stats.additional_prefixes;
    }
    stats.space.insert(e.prefix);
    if (e.incident) {
      ++stats.incident_prefixes;
      stats.incident_space.insert(e.prefix);
    }
  }
}

void merge_space(net::IntervalSet& into, const net::IntervalSet& from) {
  for (const net::IntervalSet::Interval& iv : from.intervals()) {
    into.insert(iv.begin, iv.end);
  }
}

// Fold `part` into `r`. All fields are either sums or interval-set unions,
// both order-insensitive, so merging chunk partials in chunk order yields
// the same result as the sequential tally.
void merge(ClassificationResult& r, const ClassificationResult& part) {
  r.total_prefixes += part.total_prefixes;
  r.with_record += part.with_record;
  r.with_asn_annotation += part.with_asn_annotation;
  r.hijacked_with_asn += part.hijacked_with_asn;
  r.multi_label += part.multi_label;
  r.incident_prefixes += part.incident_prefixes;
  r.records_one_keyword += part.records_one_keyword;
  r.records_two_keywords += part.records_two_keywords;
  r.records_no_keyword += part.records_no_keyword;
  merge_space(r.total_space, part.total_space);
  merge_space(r.incident_space, part.incident_space);
  for (size_t i = 0; i < r.per_category.size(); ++i) {
    CategoryStats& into = r.per_category[i];
    const CategoryStats& from = part.per_category[i];
    into.exclusive_prefixes += from.exclusive_prefixes;
    into.additional_prefixes += from.additional_prefixes;
    into.incident_prefixes += from.incident_prefixes;
    merge_space(into.space, from.space);
    merge_space(into.incident_space, from.incident_space);
  }
}

}  // namespace

ClassificationResult analyze_classification(const Study& study,
                                            const DropIndex& index) {
  obs::Span span("core.classification");
  ClassificationResult r;
  for (size_t i = 0; i < drop::kAllCategories.size(); ++i) {
    r.per_category[i].category = drop::kAllCategories[i];
  }

  const std::vector<DropEntry>& entries = index.entries();
  const size_t chunks =
      std::min<size_t>(entries.size(), study.pool ? 32 : 1);
  if (chunks <= 1) {
    for (const DropEntry& e : entries) tally(r, e);
    return r;
  }
  std::vector<ClassificationResult> parts(chunks);
  engine::parallel_for(study, chunks, [&](size_t c) {
    const size_t begin = entries.size() * c / chunks;
    const size_t end = entries.size() * (c + 1) / chunks;
    for (size_t i = begin; i < end; ++i) tally(parts[c], entries[i]);
  });
  for (const ClassificationResult& part : parts) merge(r, part);
  return r;
}

}  // namespace droplens::core
