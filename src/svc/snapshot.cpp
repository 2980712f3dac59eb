#include "svc/snapshot.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "drop/category.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "rpki/archive.hpp"
#include "rpki/tal.hpp"

namespace droplens::svc {

namespace {

constexpr uint8_t feed_bit(core::Feed f) {
  return static_cast<uint8_t>(uint8_t{1} << static_cast<uint8_t>(f));
}

/// Primary classification bucket: the first category (in kAllCategories
/// order) a prefix carries.
uint8_t primary_bucket(uint8_t category_bits) {
  for (drop::Category c : drop::kAllCategories) {
    if (category_bits & (uint8_t{1} << static_cast<int>(c))) {
      return static_cast<uint8_t>(c);
    }
  }
  return kNoValue;
}

uint8_t rov_status(rpki::Validity v) {
  switch (v) {
    case rpki::Validity::kValid:
      return static_cast<uint8_t>(RovStatus::kValid);
    case rpki::Validity::kInvalid:
      return static_cast<uint8_t>(RovStatus::kInvalid);
    case rpki::Validity::kNotFound:
      break;
  }
  return static_cast<uint8_t>(RovStatus::kNotFound);
}

/// One assembly routine for every lookup flavour. `sub` supplies the seven
/// substrate answers; the scalar, reference, and batched paths plug in
/// different providers, so their answers can only differ if a substrate
/// search itself differs — exactly what the differential tests pin.
template <typename Sub>
Answer assemble_answer(uint8_t fields, const Sub& sub) {
  Answer a;
  a.fields = fields & kAllFields;
  if (a.fields & (field_bit(Field::kDrop) | field_bit(Field::kClassification))) {
    if (const Snapshot::DropInfo* info = sub.drop_info()) {
      a.drop_listed = true;
      a.incident = info->incident;
      if (a.fields & field_bit(Field::kDrop)) a.categories = info->categories;
      if (a.fields & field_bit(Field::kClassification)) {
        a.bucket = primary_bucket(info->categories);
      }
    }
  }
  if (a.fields & field_bit(Field::kRov)) {
    const uint8_t* status = sub.rov_status();
    a.rov = status ? static_cast<RovStatus>(*status) : RovStatus::kUnrouted;
  }
  if (a.fields & field_bit(Field::kAs0)) a.as0_covered = sub.as0();
  if (a.fields & field_bit(Field::kIrr)) a.irr_registered = sub.irr();
  if (a.fields & field_bit(Field::kRouted)) a.routed = sub.routed();
  if (a.fields & field_bit(Field::kRir)) {
    if (const uint8_t* rir = sub.rir_value()) {
      a.rir = *rir;
      a.rir_status = sub.allocated_at_first() ? RirStatus::kAllocated
                                              : RirStatus::kFreePool;
    } else {
      a.rir_status = RirStatus::kUnadministered;
    }
  }
  return a;
}

/// Per-query provider over the live structures; kReference forces the
/// plain std::upper_bound searches.
template <bool kReference>
struct ScalarSub {
  const Snapshot& s;
  const net::Prefix& p;

  const Snapshot::DropInfo* drop_info() const {
    return kReference ? s.drop().lookup_reference(p.first())
                      : s.drop().lookup(p);
  }
  const uint8_t* rov_status() const {
    return kReference ? s.rov().lookup_reference(p.first()) : s.rov().lookup(p);
  }
  const uint8_t* rir_value() const {
    return kReference ? s.rir().lookup_reference(p.first()) : s.rir().lookup(p);
  }
  bool as0() const {
    return kReference ? s.as0().intersects_reference(p) : s.as0().intersects(p);
  }
  bool irr() const {
    return kReference ? s.irr().intersects_reference(p) : s.irr().intersects(p);
  }
  bool routed() const {
    return kReference ? s.routed().intersects_reference(p)
                      : s.routed().intersects(p);
  }
  bool allocated_at_first() const {
    net::Ipv4 first(static_cast<uint32_t>(p.first()));
    return kReference ? s.allocated().contains_reference(first)
                      : s.allocated().contains(first);
  }
};

/// Provider over one batch lane's precomputed substrate answers.
struct LaneSub {
  const Snapshot::DropInfo* drop_v;
  const uint8_t* rov_v;
  const uint8_t* rir_v;
  bool as0_v, irr_v, routed_v, alloc_v;

  const Snapshot::DropInfo* drop_info() const { return drop_v; }
  const uint8_t* rov_status() const { return rov_v; }
  const uint8_t* rir_value() const { return rir_v; }
  bool as0() const { return as0_v; }
  bool irr() const { return irr_v; }
  bool routed() const { return routed_v; }
  bool allocated_at_first() const { return alloc_v; }
};

}  // namespace

Answer Snapshot::lookup(const net::Prefix& p, uint8_t fields) const {
  return assemble_answer(fields, ScalarSub<false>{*this, p});
}

Answer Snapshot::lookup_reference(const net::Prefix& p, uint8_t fields) const {
  return assemble_answer(fields, ScalarSub<true>{*this, p});
}

void Snapshot::lookup_batch(std::span<const net::Prefix> prefixes,
                            std::span<const uint8_t> fields,
                            std::span<Answer> out) const {
  assert(prefixes.size() == fields.size() && prefixes.size() == out.size());
  // Chunked so the per-substrate scratch stays on the stack: run each
  // requested substrate's batched search over the whole chunk (a stripe of
  // independent, prefetched descents), then assemble per lane.
  constexpr size_t kChunk = 512;
  uint64_t firsts[kChunk];
  const DropInfo* drop_v[kChunk];
  const uint8_t* rov_v[kChunk];
  const uint8_t* rir_v[kChunk];
  uint8_t as0_v[kChunk], irr_v[kChunk], routed_v[kChunk], alloc_v[kChunk];
  for (size_t base = 0; base < prefixes.size(); base += kChunk) {
    const size_t len = std::min(kChunk, prefixes.size() - base);
    uint8_t want = 0;
    for (size_t j = 0; j < len; ++j) want |= fields[base + j];
    want &= kAllFields;
    for (size_t j = 0; j < len; ++j) firsts[j] = prefixes[base + j].first();
    const std::span<const uint64_t> first_keys(firsts, len);
    const std::span<const net::Prefix> chunk = prefixes.subspan(base, len);
    // Unrequested substrates zero-fill their lanes so LaneSub construction
    // below never reads an indeterminate slot (assembly still ignores them
    // per-lane).
    if (want &
        (field_bit(Field::kDrop) | field_bit(Field::kClassification))) {
      drop_.lookup_batch(first_keys, drop_v);
    } else {
      std::fill_n(drop_v, len, nullptr);
    }
    if (want & field_bit(Field::kRov)) {
      rov_.lookup_batch(first_keys, rov_v);
    } else {
      std::fill_n(rov_v, len, nullptr);
    }
    if (want & field_bit(Field::kRir)) {
      rir_.lookup_batch(first_keys, rir_v);
      allocated_.contains_batch(first_keys, alloc_v);
    } else {
      std::fill_n(rir_v, len, nullptr);
      std::fill_n(alloc_v, len, uint8_t{0});
    }
    if (want & field_bit(Field::kAs0)) {
      as0_.intersects_batch(chunk, as0_v);
    } else {
      std::fill_n(as0_v, len, uint8_t{0});
    }
    if (want & field_bit(Field::kIrr)) {
      irr_.intersects_batch(chunk, irr_v);
    } else {
      std::fill_n(irr_v, len, uint8_t{0});
    }
    if (want & field_bit(Field::kRouted)) {
      routed_.intersects_batch(chunk, routed_v);
    } else {
      std::fill_n(routed_v, len, uint8_t{0});
    }
    for (size_t j = 0; j < len; ++j) {
      // Lanes only read the substrates their own field mask requested —
      // which the chunk's `want` union covers, so those slots are filled.
      out[base + j] = assemble_answer(
          fields[base + j],
          LaneSub{drop_v[j], rov_v[j], rir_v[j], as0_v[j] != 0, irr_v[j] != 0,
                  routed_v[j] != 0, alloc_v[j] != 0});
    }
  }
}

std::shared_ptr<const Snapshot> compile_snapshot(const core::Study& study,
                                                 const core::DropIndex& index,
                                                 net::Date d,
                                                 uint64_t version) {
  obs::Span span("svc.compile_snapshot");
  obs::counter("droplens_svc_snapshot_compiles_total", {},
               "Snapshots compiled for the query service")
      .inc();
  auto snap = std::make_shared<Snapshot>();
  snap->version_ = version;
  snap->date_ = d;

  using core::engine::DaySet;

  // Boolean space fields: one IntervalSet each, moved out of its DaySet. An
  // empty DaySet (ledger-unavailable day or failed substrate computation)
  // leaves the set empty and flags the feed.
  if (DaySet routed = core::engine::routed_space(study, d)) {
    snap->routed_ = std::move(*routed);
  } else {
    snap->degraded_ |= feed_bit(core::Feed::kBgpUpdates);
  }
  if (DaySet allocated = core::engine::allocated_space(study, d)) {
    snap->allocated_ = std::move(*allocated);
  } else {
    snap->degraded_ |= feed_bit(core::Feed::kDelegations);
  }
  if (DaySet as0 = core::engine::signed_space(study, d, rpki::TalSet::all(),
                                        rpki::RoaArchive::Filter::kAs0Only)) {
    snap->as0_ = std::move(*as0);
  } else {
    snap->degraded_ |= feed_bit(core::Feed::kRoas);
  }
  if (DaySet irr = core::engine::irr_space(study, d)) {
    snap->irr_ = std::move(*irr);
  } else {
    snap->degraded_ |= feed_bit(core::Feed::kIrr);
  }

  // DROP labels: OR the categories of every listing covering a point, so
  // overlapping listings answer with their label union (order-independent).
  if (core::engine::day_available(study, core::Feed::kDropFeed, d)) {
    for (const core::DropEntry& entry : index.entries()) {
      if (!study.drop.listed_on(entry.prefix, d)) continue;
      Snapshot::DropInfo info;
      info.categories = 0;
      for (drop::Category c : drop::kAllCategories) {
        if (entry.categories.has(c)) {
          info.categories |= uint8_t{1} << static_cast<int>(c);
        }
      }
      info.incident = entry.incident;
      snap->drop_.merge(entry.prefix, info, Snapshot::DropInfo::merge);
    }
  } else {
    snap->degraded_ |= feed_bit(core::Feed::kDropFeed);
  }
  snap->drop_.finalize();

  // ROV: per announced prefix, the aggregate RFC 6811 status of its origins
  // that day; a point lookup answers with the most specific covering
  // announcement — router longest-match.
  const bool bgp_ok =
      (snap->degraded_ & feed_bit(core::Feed::kBgpUpdates)) == 0;
  const bool roas_ok = core::engine::day_available(study, core::Feed::kRoas, d);
  if (!roas_ok) snap->degraded_ |= feed_bit(core::Feed::kRoas);
  if (bgp_ok) {
    // The cache's merge sweep yields the day's routes in prefix order with
    // their status; one longest-match sweep emits the finished segments.
    using Route = core::SnapshotCache::RouteValidity;
    const std::vector<Route> routes =
        core::engine::cache(study).route_validity(
            d, roas_ok ? rpki::TalSet::defaults() : rpki::TalSet());
    snap->rov_ =
        net::SegmentMap<uint8_t>::from_nested(routes, [](const Route& r) {
          return net::SegmentMap<uint8_t>::Segment{
              r.prefix.first(), r.prefix.end(), rov_status(r.validity)};
        });
  }

  snap->rir_ = administering_rirs(study.registry);

  // from_sorted, from_nested and finalize() already indexed the scanned
  // sets and the segment maps. This indexes the rest (the IRR set is grown
  // by insert()) and skips what is built.
  snap->build_indexes();

  return snap;
}

net::SegmentMap<uint8_t> administering_rirs(const rir::Registry& registry) {
  net::SegmentMap<uint8_t> m;
  for (rir::Rir r : rir::kAllRirs) {
    for (const net::IntervalSet::Interval& iv :
         registry.administered(r).intervals()) {
      m.assign(iv.begin, iv.end, static_cast<uint8_t>(r));
    }
  }
  m.finalize();
  return m;
}

}  // namespace droplens::svc
