#include "stream/snapshot_diff.hpp"

#include <algorithm>
#include <span>

#include "net/cidr_cover.hpp"
#include "rir/rir.hpp"
#include "rpki/tal.hpp"
#include "util/error.hpp"

namespace droplens::stream {

namespace {

using net::IntervalSet;

/// Step through a canonical segment array as a point-function: value at a
/// position, and the next boundary after it.
template <typename T>
class Stepper {
 public:
  explicit Stepper(std::span<const typename net::SegmentMap<T>::Segment> segs)
      : segs_(segs) {}

  const T* at(uint64_t pos) {
    while (i_ < segs_.size() && segs_[i_].end <= pos) ++i_;
    if (i_ < segs_.size() && segs_[i_].begin <= pos) return &segs_[i_].value;
    return nullptr;
  }

  /// The next boundary strictly after `pos` (call at() first).
  uint64_t next_after(uint64_t pos) const {
    if (i_ >= segs_.size()) return kSpaceEnd;
    return segs_[i_].begin > pos ? segs_[i_].begin : segs_[i_].end;
  }

  static constexpr uint64_t kSpaceEnd = uint64_t{1} << 32;

 private:
  std::span<const typename net::SegmentMap<T>::Segment> segs_;
  size_t i_ = 0;
};

Event make_event(EventType type, const net::Prefix& p, net::Date d,
                 uint32_t value = 0, uint8_t aux = 0, uint8_t aux2 = 0) {
  Event e;
  e.type = type;
  e.date = d;
  e.prefix = p;
  e.value = value;
  e.aux = aux;
  e.aux2 = aux2;
  return e;
}

void diff_intervals(std::vector<Event>& out, const IntervalSet& a,
                    const IntervalSet& b, net::Date d, EventType remove,
                    EventType add, uint32_t value, uint8_t aux, uint8_t aux2) {
  for (const net::Prefix& p :
       net::cidr_cover(IntervalSet::set_difference(a, b))) {
    out.push_back(make_event(remove, p, d, value, aux, aux2));
  }
  for (const net::Prefix& p :
       net::cidr_cover(IntervalSet::set_difference(b, a))) {
    out.push_back(make_event(add, p, d, value, aux, aux2));
  }
}

/// Sweep two segment maps as point-functions; where they disagree, emit the
/// old value's removal and the new value's assertion over that range.
template <typename T, typename Emit>
void diff_segments(std::span<const typename net::SegmentMap<T>::Segment> a,
                   std::span<const typename net::SegmentMap<T>::Segment> b,
                   Emit&& emit) {
  Stepper<T> sa(a);
  Stepper<T> sb(b);
  uint64_t pos = 0;
  while (pos < Stepper<T>::kSpaceEnd) {
    const T* va = sa.at(pos);
    const T* vb = sb.at(pos);
    uint64_t next = std::min(sa.next_after(pos), sb.next_after(pos));
    const bool equal = (va == nullptr && vb == nullptr) ||
                       (va != nullptr && vb != nullptr && *va == *vb);
    if (!equal) {
      for (const net::Prefix& p : net::cidr_cover(pos, next)) {
        emit(p, va, vb);
      }
    }
    pos = next;
  }
}

/// A fresh, unfinalized paint of `m`'s segments, for apply_diff to edit.
template <typename T>
net::SegmentMap<T> repaint(const net::SegmentMap<T>& m) {
  net::SegmentMap<T> out;
  for (const auto& s : m.segments()) out.assign(s.begin, s.end, s.value);
  return out;
}

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

std::vector<Event> diff_snapshots(const svc::Snapshot& a,
                                  const svc::Snapshot& b) {
  const net::Date d = b.date();
  std::vector<Event> out;

  diff_intervals(out, a.routed(), b.routed(), d, EventType::kBgpWithdraw,
                 EventType::kBgpAnnounce, 0, 0, 0);
  diff_intervals(out, a.as0(), b.as0(), d, EventType::kRoaRemove,
                 EventType::kRoaAdd, /*value=*/0, /*aux=*/32,
                 static_cast<uint8_t>(rpki::Tal::kApnicAs0));
  diff_intervals(out, a.irr(), b.irr(), d, EventType::kIrrRemove,
                 EventType::kIrrAdd, 0, 0, 0);
  diff_intervals(out, a.allocated(), b.allocated(), d,
                 EventType::kDelegationRemove, EventType::kDelegationAdd, 0, 0,
                 0);

  diff_segments<svc::Snapshot::DropInfo>(
      a.drop().segments(), b.drop().segments(),
      [&](const net::Prefix& p, const svc::Snapshot::DropInfo* old_value,
          const svc::Snapshot::DropInfo* new_value) {
        if (old_value) {
          out.push_back(make_event(EventType::kDropRemove, p, d, 0,
                                   old_value->categories, old_value->incident));
        }
        if (new_value) {
          out.push_back(make_event(EventType::kDropAdd, p, d, 0,
                                   new_value->categories, new_value->incident));
        }
      });
  diff_segments<uint8_t>(
      a.rov().segments(), b.rov().segments(),
      [&](const net::Prefix& p, const uint8_t* old_value,
          const uint8_t* new_value) {
        if (old_value) {
          out.push_back(make_event(EventType::kRovClear, p, d, *old_value));
        }
        if (new_value) {
          out.push_back(make_event(EventType::kRovSet, p, d, *new_value));
        }
      });
  diff_segments<uint8_t>(
      a.rir().segments(), b.rir().segments(),
      [&](const net::Prefix& p, const uint8_t* old_value,
          const uint8_t* new_value) {
        if (old_value) {
          out.push_back(make_event(EventType::kRirClear, p, d, *old_value));
        }
        if (new_value) {
          out.push_back(make_event(EventType::kRirSet, p, d, *new_value));
        }
      });

  // Canonical order: all removals precede all additions, so replaying a
  // value change clears the old before asserting the new.
  std::sort(out.begin(), out.end(), canonical_less);
  return out;
}

svc::Snapshot apply_diff(const svc::Snapshot& a,
                         const std::vector<Event>& events, net::Date date,
                         uint64_t version) {
  IntervalSet routed = a.routed();
  IntervalSet as0 = a.as0();
  IntervalSet irr = a.irr();
  IntervalSet allocated = a.allocated();
  net::SegmentMap<svc::Snapshot::DropInfo> drop = repaint(a.drop());
  net::SegmentMap<uint8_t> rov = repaint(a.rov());
  net::SegmentMap<uint8_t> rir = repaint(a.rir());

  for (const Event& e : events) {
    const uint64_t begin = e.prefix.first();
    const uint64_t end = e.prefix.end();
    switch (e.type) {
      case EventType::kBgpAnnounce: routed.insert(begin, end); break;
      case EventType::kBgpWithdraw: routed.erase(begin, end); break;
      case EventType::kRoaAdd:
      case EventType::kRoaRemove:
        if (e.value != 0) {
          throw InvariantError(
              "stream: flat diff cannot carry a real-origin ROA");
        }
        if (e.type == EventType::kRoaAdd) {
          as0.insert(begin, end);
        } else {
          as0.erase(begin, end);
        }
        break;
      case EventType::kIrrAdd: irr.insert(begin, end); break;
      case EventType::kIrrRemove: irr.erase(begin, end); break;
      case EventType::kDelegationAdd: allocated.insert(begin, end); break;
      case EventType::kDelegationRemove: allocated.erase(begin, end); break;
      case EventType::kDropAdd: {
        svc::Snapshot::DropInfo info;
        info.categories = e.aux;
        info.incident = e.aux2 ? 1 : 0;
        drop.assign(begin, end, info);
        break;
      }
      case EventType::kDropRemove: drop.erase(begin, end); break;
      case EventType::kRovSet:
        if (e.value > static_cast<uint32_t>(svc::RovStatus::kUnrouted)) {
          throw InvariantError("stream: bad ROV status in flat diff");
        }
        rov.assign(begin, end, static_cast<uint8_t>(e.value));
        break;
      case EventType::kRovClear: rov.erase(begin, end); break;
      case EventType::kRirSet:
        if (e.value >= rir::kAllRirs.size()) {
          throw InvariantError("stream: bad RIR index in flat diff");
        }
        rir.assign(begin, end, static_cast<uint8_t>(e.value));
        break;
      case EventType::kRirClear: rir.erase(begin, end); break;
    }
  }

  drop.finalize();
  rov.finalize();
  rir.finalize();
  return svc::Snapshot(version, date, a.degraded(), std::move(routed),
                       std::move(as0), std::move(irr), std::move(allocated),
                       std::move(drop), std::move(rov), std::move(rir));
}

bool snapshots_equal(const svc::Snapshot& a, const svc::Snapshot& b) {
  return a.degraded() == b.degraded() && a.routed() == b.routed() &&
         a.as0() == b.as0() && a.irr() == b.irr() &&
         a.allocated() == b.allocated() &&
         spans_equal(a.drop().segments(), b.drop().segments()) &&
         spans_equal(a.rov().segments(), b.rov().segments()) &&
         spans_equal(a.rir().segments(), b.rir().segments());
}

}  // namespace droplens::stream
