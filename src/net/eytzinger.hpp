// Branch-free, cache-line-aware search index over a sorted key array.
//
// The substrates (IntervalSet, SegmentMap) answer every query with an
// upper_bound over a flat sorted array. At paper scale (~1K segments) the
// array fits in L1/L2 and std::upper_bound is fine; at full-table scale
// (1M+ segments, ~24 MB of segments) every probe of a classic binary search
// is a cache miss on a *serially dependent* address — the search is latency-
// bound, ~30 misses deep, and one core tops out near a few million
// lookups/s.
//
// EytzingerIndex rearranges only the *keys* into the Eytzinger (BFS /
// implicit-heap) order: node k's children are 2k and 2k+1, so the top of
// the tree — the levels every query touches — packs into a handful of
// contiguous cache lines, and the address of the next probe is computable
// from the comparison bit alone (no data-dependent branch). A parallel
// `rank` array maps each tree slot back to the element's position in the
// canonical sorted array, so the index is a pure *permutation overlay*:
// the canonical arrays (and the `.dls` mmap format serialized from them)
// stay byte-identical, and the index is rebuilt from them at load time.
//
// The batched form descends a stripe of queries in lockstep and software-
// prefetches each lane's great-great-grandchildren cache line, converting
// the dependent-miss chain into ~W independent misses in flight per level
// (memory-level parallelism) — the difference between ~5M and >100M
// lookups/s per core at full-table scale.
//
// The tree is padded to a full complete tree (cap = bit_ceil(n + 1)) with
// +inf sentinel keys whose rank is n, so every descent runs exactly
// log2(cap) iterations with no bounds check and resolves pads to "past the
// end" for free.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace droplens::net {

class EytzingerIndex {
 public:
  EytzingerIndex() = default;

  /// Build over `n` keys where `key_at(i)` is the i-th key in ascending
  /// sorted order (duplicates allowed). O(n). Keys are copied into the
  /// index; the source may be a strided field (e.g. Segment::begin).
  /// Degenerate guard: n must leave room for the `rank == n` sentinel in a
  /// uint32_t — otherwise the index stays unbuilt and callers fall back to
  /// the reference search.
  template <typename KeyAt>
  void build(size_t n, KeyAt&& key_at) {
    clear();
    if (n >= UINT32_MAX) return;
    n_ = n;
    cap_ = std::bit_ceil(n + 1);
    levels_ = static_cast<uint32_t>(std::countr_zero(cap_));
    keys_.resize(cap_, kSentinel);
    rank_.resize(cap_, static_cast<uint32_t>(n));
    size_t next = 0;
    fill(1, next, key_at);
    assert(next == n_);
  }

  void clear() {
    keys_.clear();
    rank_.clear();
    n_ = 0;
    cap_ = 0;
    levels_ = 0;
  }

  bool built() const { return cap_ != 0; }
  size_t size() const { return n_; }

  /// Rank of the first sorted element whose key is > x (== n if none):
  /// exactly `std::upper_bound(keys, keys + n, x) - keys`.
  uint32_t upper_bound(uint64_t x) const {
    assert(built());
    size_t k = 1;
    for (uint32_t lvl = 0; lvl < levels_; ++lvl) {
      k = 2 * k + static_cast<size_t>(keys_[k] <= x);
    }
    k >>= std::countr_one(k) + 1;
    return k == 0 ? static_cast<uint32_t>(n_) : rank_[k];
  }

  /// Batched upper_bound: out[i] = upper_bound(xs[i]). Descends a stripe of
  /// kLanes queries in lockstep, prefetching each lane's subtree four
  /// levels ahead (16 nodes = two cache lines of keys), so the misses of a
  /// whole stripe are in flight concurrently instead of serialized.
  void upper_bound_batch(std::span<const uint64_t> xs, uint32_t* out) const {
    assert(built());
    static constexpr size_t kLanes = 16;
    static constexpr uint32_t kAhead = 4;  // prefetch depth, log2(16)
    const size_t full = xs.size() - xs.size() % kLanes;
    for (size_t i = 0; i < full; i += kLanes) {
      size_t k[kLanes];
      for (size_t j = 0; j < kLanes; ++j) k[j] = 1;
      for (uint32_t lvl = 0; lvl < levels_; ++lvl) {
        for (size_t j = 0; j < kLanes; ++j) {
          k[j] = 2 * k[j] + static_cast<size_t>(keys_[k[j]] <= xs[i + j]);
        }
        // After this level k < 2^(lvl+2), so k<<kAhead stays within cap_
        // exactly when lvl + kAhead + 1 < levels_ — hoisted, branch-free
        // inner loop.
        if (lvl + kAhead + 1 < levels_) {
          const uint64_t* base = keys_.data();
          for (size_t j = 0; j < kLanes; ++j) {
            __builtin_prefetch(base + (k[j] << kAhead));
            __builtin_prefetch(base + (k[j] << kAhead) + 8);
          }
        }
      }
      for (size_t j = 0; j < kLanes; ++j) {
        size_t r = k[j] >> (std::countr_one(k[j]) + 1);
        out[i + j] = r == 0 ? static_cast<uint32_t>(n_) : rank_[r];
      }
    }
    for (size_t i = full; i < xs.size(); ++i) out[i] = upper_bound(xs[i]);
  }

 private:
  static constexpr uint64_t kSentinel = ~uint64_t{0};

  // In-order walk of the complete tree assigns sorted positions to slots;
  // positions past n stay at the sentinel defaults (they sort after every
  // real key, which is bounded by 2^32 < kSentinel).
  template <typename KeyAt>
  void fill(size_t k, size_t& next, KeyAt& key_at) {
    if (k >= cap_) return;
    fill(2 * k, next, key_at);
    if (next < n_) {
      keys_[k] = key_at(next);
      rank_[k] = static_cast<uint32_t>(next);
      ++next;
    }
    fill(2 * k + 1, next, key_at);
  }

  std::vector<uint64_t> keys_;  // Eytzinger order; slot 0 unused
  std::vector<uint32_t> rank_;  // slot -> index in the sorted array
  size_t n_ = 0;
  size_t cap_ = 0;       // bit_ceil(n + 1); 0 = not built
  uint32_t levels_ = 0;  // log2(cap_)
};

}  // namespace droplens::net
