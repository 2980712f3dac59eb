#include "net/interval_set.hpp"

#include <algorithm>
#include <cassert>

namespace droplens::net {

IntervalSet IntervalSet::view(std::span<const Interval> intervals) {
  assert(is_canonical(intervals));
  IntervalSet set;
  set.ext_data_ = intervals.data();
  set.ext_size_ = intervals.size();
  // Views are born immutable — build the acceleration index up front. This
  // is how a snapshot loaded from mmapped bytes regains the fast path: the
  // on-disk format carries only the canonical arrays.
  set.build_index();
  return set;
}

bool IntervalSet::is_canonical(std::span<const Interval> intervals) {
  constexpr uint64_t kSpaceEnd = uint64_t{1} << 32;
  for (size_t i = 0; i < intervals.size(); ++i) {
    const Interval& iv = intervals[i];
    if (iv.begin >= iv.end || iv.end > kSpaceEnd) return false;
    // Non-adjacent: a canonical set coalesces touching intervals.
    if (i > 0 && iv.begin <= intervals[i - 1].end) return false;
  }
  return true;
}

void IntervalSet::append_sorted(const Interval& iv) {
  if (iv.begin >= iv.end) return;
  assert(intervals_.empty() || iv.begin >= intervals_.back().begin);
  if (!intervals_.empty() && iv.begin <= intervals_.back().end) {
    if (iv.end > intervals_.back().end) intervals_.back().end = iv.end;
  } else {
    intervals_.push_back(iv);
  }
}

IntervalSet IntervalSet::from_sorted(std::span<const Interval> intervals) {
  IntervalSet set;
  set.intervals_.reserve(intervals.size());
  for (const Interval& iv : intervals) set.append_sorted(iv);
  set.build_index();
  return set;
}

void IntervalSet::build_index() {
  std::span<const Interval> ivs = intervals();
  if (eytz_.built() && eytz_.size() == ivs.size()) return;
  eytz_.build(ivs.size(), [ivs](size_t i) { return ivs[i].begin; });
}

void IntervalSet::detach() {
  if (!ext_data_) return;
  intervals_.assign(ext_data_, ext_data_ + ext_size_);
  ext_data_ = nullptr;
  ext_size_ = 0;
}

void IntervalSet::insert(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  detach();
  eytz_.clear();
  // Find the first interval whose end >= begin (candidate for merging).
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, uint64_t b) { return iv.end < b; });
  // Find one past the last interval whose begin <= end.
  auto last = std::upper_bound(
      first, intervals_.end(), end,
      [](uint64_t e, const Interval& iv) { return e < iv.begin; });
  if (first != last) {
    begin = std::min(begin, first->begin);
    end = std::max(end, std::prev(last)->end);
  }
  auto it = intervals_.erase(first, last);
  intervals_.insert(it, Interval{begin, end});
}

void IntervalSet::erase(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  detach();
  eytz_.clear();
  std::vector<Interval> out;
  out.reserve(intervals_.size() + 1);
  for (const Interval& iv : intervals_) {
    if (iv.end <= begin || iv.begin >= end) {
      out.push_back(iv);
      continue;
    }
    if (iv.begin < begin) out.push_back(Interval{iv.begin, begin});
    if (iv.end > end) out.push_back(Interval{end, iv.end});
  }
  intervals_ = std::move(out);
}

bool IntervalSet::contains(Ipv4 addr) const {
  if (!eytz_.built()) return contains_reference(addr);
  std::span<const Interval> ivs = intervals();
  uint64_t a = addr.value();
  uint32_t r = eytz_.upper_bound(a);
  return r != 0 && a < ivs[r - 1].end;
}

bool IntervalSet::covers(const Prefix& p) const {
  if (!eytz_.built()) return covers_reference(p);
  std::span<const Interval> ivs = intervals();
  uint64_t b = p.first(), e = p.end();
  // upper_bound by begin: interval r-1 (if any) is the last with begin <= b.
  uint32_t r = eytz_.upper_bound(b);
  return r != 0 && b >= ivs[r - 1].begin && e <= ivs[r - 1].end;
}

bool IntervalSet::intersects(const Prefix& p) const {
  if (!eytz_.built()) return intersects_reference(p);
  std::span<const Interval> ivs = intervals();
  uint64_t b = p.first(), e = p.end();
  // [b, e) overlaps either the last interval beginning at or before b, or
  // the first interval beginning after b — disjointness rules out others.
  uint32_t r = eytz_.upper_bound(b);
  if (r != 0 && b < ivs[r - 1].end) return true;
  return r < ivs.size() && ivs[r].begin < e;
}

bool IntervalSet::contains_reference(Ipv4 addr) const {
  std::span<const Interval> ivs = intervals();
  uint64_t a = addr.value();
  auto it = std::upper_bound(
      ivs.begin(), ivs.end(), a,
      [](uint64_t v, const Interval& iv) { return v < iv.begin; });
  if (it == ivs.begin()) return false;
  --it;
  return a < it->end;
}

bool IntervalSet::covers_reference(const Prefix& p) const {
  std::span<const Interval> ivs = intervals();
  uint64_t b = p.first(), e = p.end();
  auto it = std::upper_bound(
      ivs.begin(), ivs.end(), b,
      [](uint64_t v, const Interval& iv) { return v < iv.begin; });
  if (it == ivs.begin()) return false;
  --it;
  return b >= it->begin && e <= it->end;
}

bool IntervalSet::intersects_reference(const Prefix& p) const {
  std::span<const Interval> ivs = intervals();
  uint64_t b = p.first(), e = p.end();
  auto it = std::lower_bound(
      ivs.begin(), ivs.end(), b,
      [](const Interval& iv, uint64_t v) { return iv.end <= v; });
  return it != ivs.end() && it->begin < e;
}

void IntervalSet::contains_batch(std::span<const uint64_t> addrs,
                                 uint8_t* out) const {
  std::span<const Interval> ivs = intervals();
  if (!eytz_.built()) {
    for (size_t i = 0; i < addrs.size(); ++i) {
      out[i] = contains_reference(Ipv4(static_cast<uint32_t>(addrs[i]))) ? 1
                                                                         : 0;
    }
    return;
  }
  constexpr size_t kChunk = 512;
  uint32_t ranks[kChunk];
  for (size_t base = 0; base < addrs.size(); base += kChunk) {
    const size_t len = std::min(kChunk, addrs.size() - base);
    eytz_.upper_bound_batch(addrs.subspan(base, len), ranks);
    for (size_t j = 0; j < len; ++j) {
      uint32_t r = ranks[j];
      out[base + j] =
          static_cast<uint8_t>(r != 0 && addrs[base + j] < ivs[r - 1].end);
    }
  }
}

void IntervalSet::intersects_batch(std::span<const Prefix> prefixes,
                                   uint8_t* out) const {
  std::span<const Interval> ivs = intervals();
  if (!eytz_.built()) {
    for (size_t i = 0; i < prefixes.size(); ++i) {
      out[i] = intersects_reference(prefixes[i]) ? 1 : 0;
    }
    return;
  }
  constexpr size_t kChunk = 512;
  uint64_t keys[kChunk];
  uint32_t ranks[kChunk];
  for (size_t base = 0; base < prefixes.size(); base += kChunk) {
    const size_t len = std::min(kChunk, prefixes.size() - base);
    for (size_t j = 0; j < len; ++j) keys[j] = prefixes[base + j].first();
    eytz_.upper_bound_batch(std::span<const uint64_t>(keys, len), ranks);
    for (size_t j = 0; j < len; ++j) {
      uint32_t r = ranks[j];
      const uint64_t b = keys[j];
      const uint64_t e = prefixes[base + j].end();
      out[base + j] =
          static_cast<uint8_t>((r != 0 && b < ivs[r - 1].end) ||
                               (r < ivs.size() && ivs[r].begin < e));
    }
  }
}

uint64_t IntervalSet::size() const {
  uint64_t total = 0;
  for (const Interval& iv : intervals()) total += iv.size();
  return total;
}

bool operator==(const IntervalSet& a, const IntervalSet& b) {
  std::span<const IntervalSet::Interval> x = a.intervals();
  std::span<const IntervalSet::Interval> y = b.intervals();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

IntervalSet IntervalSet::set_union(const IntervalSet& a, const IntervalSet& b) {
  // Merge the two begin-sorted arrays; append_sorted coalesces.
  IntervalSet out;
  std::span<const Interval> as = a.intervals();
  std::span<const Interval> bs = b.intervals();
  out.intervals_.reserve(as.size() + bs.size());
  auto ia = as.begin();
  auto ib = bs.begin();
  while (ia != as.end() || ib != bs.end()) {
    const bool take_a =
        ib == bs.end() || (ia != as.end() && ia->begin <= ib->begin);
    out.append_sorted(take_a ? *ia++ : *ib++);
  }
  return out;
}

IntervalSet IntervalSet::set_intersection(const IntervalSet& a,
                                          const IntervalSet& b) {
  IntervalSet out;
  std::span<const Interval> as = a.intervals();
  std::span<const Interval> bs = b.intervals();
  auto ia = as.begin();
  auto ib = bs.begin();
  while (ia != as.end() && ib != bs.end()) {
    uint64_t lo = std::max(ia->begin, ib->begin);
    uint64_t hi = std::min(ia->end, ib->end);
    if (lo < hi) out.intervals_.push_back(Interval{lo, hi});
    if (ia->end < ib->end) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return out;
}

IntervalSet IntervalSet::set_difference(const IntervalSet& a,
                                        const IntervalSet& b) {
  // One pass over each array: `ib` only moves forward, and an interval of b
  // is revisited at most once per interval of a it overhangs into.
  IntervalSet out;
  std::span<const Interval> bs = b.intervals();
  auto ib = bs.begin();
  for (const Interval& iv : a.intervals()) {
    uint64_t at = iv.begin;
    while (ib != bs.end() && ib->end <= at) ++ib;
    for (auto j = ib; j != bs.end() && j->begin < iv.end && at < iv.end; ++j) {
      if (j->begin > at) out.intervals_.push_back(Interval{at, j->begin});
      at = std::max(at, j->end);
    }
    if (at < iv.end) out.intervals_.push_back(Interval{at, iv.end});
  }
  return out;
}

}  // namespace droplens::net
