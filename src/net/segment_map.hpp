// Flattened interval→value map over the IPv4 address space.
//
// The query service compiles per-day state into structures a lookup can
// binary-search without chasing pointers. IntervalSet already covers the
// boolean fields (routed? signed?); SegmentMap covers the valued ones
// (which DROP categories, which ROV status): paint (range, value) pairs —
// later paints either overwrite (most-specific-wins, the router longest-
// match semantic), merge (label union) or erase (unpaint) — then
// finalize() into one sorted vector of disjoint segments. Lookup is a
// single upper_bound. When the paints are prefixes given in prefix order,
// from_nested() builds the same longest-match result in one stack sweep,
// without the paint map.
//
// Like IntervalSet, a map either owns its segment array or is a non-owning
// view over externally owned storage — the zero-copy form the snapshot
// loader builds over mmapped segment arrays. Views are immutable: they are
// born finalized, and painting into one is a programming error (asserted in
// debug builds).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/eytzinger.hpp"
#include "net/prefix.hpp"

namespace droplens::net {

template <typename T>
class SegmentMap {
 public:
  struct Segment {
    uint64_t begin;
    uint64_t end;  // half-open
    T value;

    friend bool operator==(const Segment&, const Segment&) = default;
  };

  SegmentMap() = default;

  /// Non-owning view over an already-canonical segment array (see
  /// is_canonical). The storage must outlive the view and every copy of it.
  /// Canonicality is asserted in debug builds only — loaders of untrusted
  /// bytes must call is_canonical() themselves and reject violations.
  static SegmentMap view(std::span<const Segment> segments) {
    assert(is_canonical(segments));
    SegmentMap m;
    m.ext_data_ = segments.data();
    m.ext_size_ = segments.size();
    // Views are born finalized — build the acceleration index up front, so
    // a snapshot loaded from mmapped bytes regains the fast path (the
    // on-disk format carries only the canonical segment array).
    m.build_index();
    return m;
  }

  /// True when `segments` satisfies the finalized-form invariant: sorted by
  /// begin, non-empty, non-overlapping, ends within the IPv4 space bound
  /// 2^32. (Maximal coalescing is not required — lookups don't depend on
  /// it.)
  static bool is_canonical(std::span<const Segment> segments) {
    constexpr uint64_t kSpaceEnd = uint64_t{1} << 32;
    uint64_t prev_end = 0;
    for (const Segment& s : segments) {
      if (s.begin >= s.end || s.end > kSpaceEnd || s.begin < prev_end) {
        return false;
      }
      prev_end = s.end;
    }
    return true;
  }

  /// Longest-match flatten in one stack sweep. `to_segment` maps each
  /// element of `items` to its (range, value); the ranges are non-empty,
  /// sorted by begin with ties by end descending (CIDR prefix order), and
  /// any two are nested or disjoint. Equals assign()-ing them
  /// least-specific-first (of equal ranges the later wins) and then
  /// finalize(), segment for segment, without the paint map: the stack
  /// holds the open ranges, each containing the next, and every maximal run
  /// is emitted as the sweep leaves it.
  template <typename Items, typename ToSegment>
  static SegmentMap from_nested(const Items& items, ToSegment&& to_segment) {
    SegmentMap m;
    std::vector<Segment> open;
    uint64_t at = 0;  // everything before `at` has been emitted
    auto emit_to = [&](uint64_t end, const T& value) {
      if (at >= end) return;
      if (!m.segments_.empty() && m.segments_.back().end == at &&
          m.segments_.back().value == value) {
        m.segments_.back().end = end;
      } else {
        m.segments_.push_back({at, end, value});
      }
      at = end;
    };
    auto close_top = [&] {
      emit_to(open.back().end, open.back().value);
      open.pop_back();
    };
    for (const auto& item : items) {
      const Segment r = to_segment(item);
      assert(r.begin < r.end);
      while (!open.empty() && open.back().end <= r.begin) close_top();
      if (!open.empty()) emit_to(r.begin, open.back().value);
      at = r.begin;
      open.push_back(r);
    }
    while (!open.empty()) close_top();
    m.segments_.shrink_to_fit();
    m.build_index();
    return m;
  }

  bool is_view() const { return ext_data_ != nullptr; }

  /// Paint [begin, end) := value, replacing whatever was there — painting
  /// prefixes from least to most specific yields longest-match semantics.
  void assign(uint64_t begin, uint64_t end, const T& value) {
    apply(begin, end, [&](const std::optional<T>&) { return value; });
  }
  void assign(const Prefix& p, const T& value) {
    assign(p.first(), p.end(), value);
  }

  /// Paint [begin, end) := merge(existing, value), where `existing` is empty
  /// for so-far-unpainted space. Used to OR category bits of overlapping
  /// DROP listings.
  template <typename Merge>
  void merge(uint64_t begin, uint64_t end, const T& value, Merge&& m) {
    apply(begin, end, [&](const std::optional<T>& existing) {
      return m(existing, value);
    });
  }
  template <typename Merge>
  void merge(const Prefix& p, const T& value, Merge&& m) {
    merge(p.first(), p.end(), value, std::forward<Merge>(m));
  }

  /// Unpaint [begin, end): finalize() drops it like never-painted space.
  void erase(uint64_t begin, uint64_t end) {
    apply(begin, end,
          [](const std::optional<T>&) { return std::optional<T>{}; });
  }

  /// Flatten the paint into the immutable sorted-segment form. Adjacent
  /// segments with equal values coalesce. Call exactly once, after the last
  /// paint; lookups before finalize() see an empty map.
  void finalize() {
    assert(!is_view());
    if (is_view()) return;
    segments_.clear();
    for (const auto& [begin, piece] : paint_) {
      if (!piece.value) continue;
      if (!segments_.empty() && segments_.back().end == begin &&
          segments_.back().value == *piece.value) {
        segments_.back().end = piece.end;
      } else {
        segments_.push_back({begin, piece.end, *piece.value});
      }
    }
    paint_.clear();
    eytz_.clear();
    build_index();
  }

  /// Build the Eytzinger acceleration index (net/eytzinger.hpp) over the
  /// finalized segment array. A permutation overlay only: segments() and
  /// everything serialized from it are unchanged. finalize() and view()
  /// call this automatically; idempotent.
  void build_index() {
    std::span<const Segment> segs = segments();
    if (eytz_.built() && eytz_.size() == segs.size()) return;
    eytz_.build(segs.size(), [segs](size_t i) { return segs[i].begin; });
  }
  bool has_fast_index() const { return eytz_.built(); }

  /// The segment value at address `addr`, or nullptr for unpainted space.
  const T* lookup(uint64_t addr) const {
    if (!eytz_.built()) return lookup_reference(addr);
    std::span<const Segment> segs = segments();
    uint32_t r = eytz_.upper_bound(addr);
    if (r == 0) return nullptr;
    const Segment& s = segs[r - 1];
    return addr < s.end ? &s.value : nullptr;
  }

  /// The plain std::upper_bound lookup, bypassing the index — the oracle
  /// the differential tests cross-check every indexed answer against.
  const T* lookup_reference(uint64_t addr) const {
    std::span<const Segment> segs = segments();
    auto it = std::upper_bound(
        segs.begin(), segs.end(), addr,
        [](uint64_t a, const Segment& s) { return a < s.begin; });
    if (it == segs.begin()) return nullptr;
    --it;
    return addr < it->end ? &it->value : nullptr;
  }

  /// Batched lookup: out[i] = lookup(addrs[i]). With the index built, a
  /// stripe of queries descends in lockstep with software prefetch (see
  /// eytzinger.hpp); without it, the reference loop. `out` must have
  /// addrs.size() slots.
  void lookup_batch(std::span<const uint64_t> addrs, const T** out) const {
    std::span<const Segment> segs = segments();
    if (!eytz_.built()) {
      for (size_t i = 0; i < addrs.size(); ++i) {
        out[i] = lookup_reference(addrs[i]);
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
        out[base + j] = (r != 0 && addrs[base + j] < segs[r - 1].end)
                            ? &segs[r - 1].value
                            : nullptr;
      }
    }
  }

  /// The value at a prefix's network address — the longest-match answer
  /// when paints went least-specific-first.
  const T* lookup(const Prefix& p) const { return lookup(p.first()); }

  bool empty() const { return segments().empty(); }
  size_t segment_count() const { return segments().size(); }
  std::span<const Segment> segments() const {
    return ext_data_ ? std::span<const Segment>(ext_data_, ext_size_)
                     : std::span<const Segment>(segments_);
  }

 private:
  struct Piece {
    uint64_t end;
    std::optional<T> value;  // empty = unpainted gap
  };

  // Piecewise-constant paint keyed by segment begin; pieces are disjoint,
  // sorted, and contiguous only where painted (gaps are simply absent keys
  // except where a paint was split around them — those carry empty values).
  template <typename Fn>
  void apply(uint64_t begin, uint64_t end, Fn&& fn) {
    assert(!is_view());
    if (begin >= end) return;
    // Split the piece strictly straddling `begin`, if any (a piece starting
    // exactly at `begin` needs no split — and must not be, or its key would
    // collide with the head we would insert).
    auto it = paint_.upper_bound(begin);
    if (it != paint_.begin()) {
      auto prev = std::prev(it);
      if (prev->first < begin && prev->second.end > begin) {
        Piece tail = prev->second;
        prev->second.end = begin;
        it = paint_.emplace_hint(it, begin, tail);
      }
    }
    // Walk pieces inside [begin, end), transforming each and filling gaps.
    uint64_t cursor = begin;
    it = paint_.lower_bound(begin);
    while (cursor < end) {
      if (it == paint_.end() || it->first >= end) {
        // Trailing gap [cursor, end).
        std::optional<T> v = fn(std::optional<T>{});
        if (v) paint_.emplace_hint(it, cursor, Piece{end, std::move(v)});
        break;
      }
      if (it->first > cursor) {
        // Gap before the next piece.
        std::optional<T> v = fn(std::optional<T>{});
        if (v) {
          it = paint_.emplace_hint(it, cursor, Piece{it->first, std::move(v)});
          ++it;
        }
        cursor = it->first;
        continue;
      }
      // A piece starting at cursor; split its overhang past `end` first.
      if (it->second.end > end) {
        paint_.emplace(end, Piece{it->second.end, it->second.value});
        it->second.end = end;
      }
      it->second.value = fn(it->second.value);
      cursor = it->second.end;
      ++it;
    }
  }

  std::map<uint64_t, Piece> paint_;
  std::vector<Segment> segments_;
  // View mode: when set, segments_ is empty and lookups read this array.
  const Segment* ext_data_ = nullptr;
  size_t ext_size_ = 0;
  // Optional acceleration overlay; ranks index into segments(). Copies
  // carry it (ranks stay valid for equal content).
  EytzingerIndex eytz_;
};

}  // namespace droplens::net
