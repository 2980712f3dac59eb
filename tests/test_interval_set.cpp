#include <gtest/gtest.h>

#include "net/cidr_cover.hpp"
#include "net/interval_set.hpp"
#include "sim/rng.hpp"
#include "util/error.hpp"

namespace droplens::net {
namespace {

TEST(IntervalSet, InsertCoalescesOverlap) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(15, 30);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.size(), 20u);
}

TEST(IntervalSet, InsertCoalescesAdjacent) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(20, 30);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.size(), 20u);
}

TEST(IntervalSet, InsertDisjointKeepsSeparate) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.size(), 20u);
}

TEST(IntervalSet, InsertCoveredIsNoop) {
  IntervalSet s;
  s.insert(0, 100);
  s.insert(10, 20);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.interval_count(), 1u);
}

TEST(IntervalSet, EmptyInsertIgnored) {
  IntervalSet s;
  s.insert(5, 5);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, EraseSplits) {
  IntervalSet s;
  s.insert(0, 100);
  s.erase(40, 60);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.size(), 80u);
  EXPECT_FALSE(s.contains(Ipv4(50)));
  EXPECT_TRUE(s.contains(Ipv4(39)));
  EXPECT_TRUE(s.contains(Ipv4(60)));
}

TEST(IntervalSet, EraseEverything) {
  IntervalSet s;
  s.insert(10, 20);
  s.erase(0, 100);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, PrefixOperations) {
  IntervalSet s;
  Prefix p = Prefix::parse("10.0.0.0/8");
  s.insert(p);
  EXPECT_TRUE(s.covers(Prefix::parse("10.1.0.0/16")));
  EXPECT_TRUE(s.covers(p));
  EXPECT_FALSE(s.covers(Prefix::parse("0.0.0.0/0")));
  EXPECT_TRUE(s.intersects(Prefix::parse("0.0.0.0/0")));
  EXPECT_FALSE(s.intersects(Prefix::parse("11.0.0.0/8")));
  EXPECT_DOUBLE_EQ(s.slash8_equivalents(), 1.0);
}

TEST(IntervalSet, CoversPartialIsFalse) {
  IntervalSet s;
  s.insert(Prefix::parse("10.0.0.0/9"));
  EXPECT_FALSE(s.covers(Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(s.intersects(Prefix::parse("10.0.0.0/8")));
}

TEST(IntervalSet, TopOfAddressSpace) {
  IntervalSet s;
  s.insert(Prefix::parse("255.0.0.0/8"));
  EXPECT_TRUE(s.contains(Ipv4::parse("255.255.255.255")));
  EXPECT_EQ(s.size(), uint64_t{1} << 24);
}

TEST(IntervalSet, SetAlgebra) {
  IntervalSet a, b;
  a.insert(0, 50);
  b.insert(30, 80);
  IntervalSet u = IntervalSet::set_union(a, b);
  IntervalSet i = IntervalSet::set_intersection(a, b);
  IntervalSet d = IntervalSet::set_difference(a, b);
  EXPECT_EQ(u.size(), 80u);
  EXPECT_EQ(i.size(), 20u);
  EXPECT_EQ(d.size(), 30u);
  // inclusion-exclusion
  EXPECT_EQ(u.size() + i.size(), a.size() + b.size());
}

// Property sweep against a reference bitset model.
class IntervalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetPropertyTest, MatchesBitsetModel) {
  sim::Rng rng(GetParam());
  constexpr uint64_t kUniverse = 4096;
  IntervalSet set;
  std::vector<bool> model(kUniverse, false);
  for (int op = 0; op < 300; ++op) {
    uint64_t a = rng.below(kUniverse);
    uint64_t b = rng.below(kUniverse);
    if (a > b) std::swap(a, b);
    if (rng.chance(0.7)) {
      set.insert(a, b);
      for (uint64_t x = a; x < b; ++x) model[x] = true;
    } else {
      set.erase(a, b);
      for (uint64_t x = a; x < b; ++x) model[x] = false;
    }
    uint64_t model_size = 0;
    for (bool v : model) model_size += v;
    ASSERT_EQ(set.size(), model_size) << "op " << op;
    // Canonical form: sorted, disjoint, non-adjacent.
    const auto& ivs = set.intervals();
    for (size_t k = 1; k < ivs.size(); ++k) {
      ASSERT_GT(ivs[k].begin, ivs[k - 1].end);
    }
  }
  // Point membership agrees everywhere.
  for (uint64_t x = 0; x < kUniverse; ++x) {
    ASSERT_EQ(set.contains(Ipv4(static_cast<uint32_t>(x))), model[x]) << x;
  }
}

TEST_P(IntervalSetPropertyTest, AlgebraLaws) {
  sim::Rng rng(GetParam() ^ 0xabcdef);
  auto random_set = [&] {
    IntervalSet s;
    for (int i = 0; i < 20; ++i) {
      uint64_t a = rng.below(100000);
      s.insert(a, a + rng.below(5000) + 1);
    }
    return s;
  };
  for (int round = 0; round < 20; ++round) {
    IntervalSet a = random_set();
    IntervalSet b = random_set();
    IntervalSet u = IntervalSet::set_union(a, b);
    IntervalSet i = IntervalSet::set_intersection(a, b);
    EXPECT_EQ(u.size() + i.size(), a.size() + b.size());
    // a \ b and a ∩ b partition a
    IntervalSet d = IntervalSet::set_difference(a, b);
    EXPECT_EQ(d.size() + i.size(), a.size());
    // commutativity
    EXPECT_EQ(IntervalSet::set_union(b, a), u);
    EXPECT_EQ(IntervalSet::set_intersection(b, a), i);
  }
}

TEST_P(IntervalSetPropertyTest, LinearMergesMatchInsertEraseFoldsAt10K) {
  sim::Rng rng(GetParam() ^ 0x10000);
  constexpr uint64_t kSpace = uint64_t{1} << 32;
  // ~12K intervals over the whole IPv4 space, touching both of its ends.
  auto random_set = [&] {
    IntervalSet s;
    s.insert(0, 1 + rng.below(1000));
    s.insert(kSpace - 1 - rng.below(1000), kSpace);
    for (int i = 0; i < 12'000; ++i) {
      const uint64_t a = rng.below(kSpace - 70'000);
      s.insert(a, a + 1 + rng.below(65'536));
    }
    return s;
  };
  const IntervalSet a = random_set();
  IntervalSet b = random_set();
  // Shapes the merges must get right: b intervals equal to, adjacent to,
  // inside and straddling a's.
  const auto ivs = a.intervals();
  for (size_t k = 0; k < ivs.size(); k += 7) {
    const IntervalSet::Interval& iv = ivs[k];
    switch (k % 4) {
      case 0: b.insert(iv.begin, iv.end); break;
      case 1:
        b.insert(iv.end, std::min(iv.end + 1 + rng.below(100), kSpace));
        break;
      case 2: b.insert(iv.begin + iv.size() / 3, iv.end - iv.size() / 3); break;
      default:
        b.insert(iv.begin + iv.size() / 2, std::min(iv.end + 500, kSpace));
        break;
    }
  }
  ASSERT_GE(a.interval_count(), 10'000u);
  ASSERT_GE(b.interval_count(), 10'000u);

  auto check = [](const IntervalSet& x, const IntervalSet& y) {
    IntervalSet union_fold = x;
    IntervalSet diff_fold = x;
    for (const IntervalSet::Interval& iv : y.intervals()) {
      union_fold.insert(iv.begin, iv.end);
      diff_fold.erase(iv.begin, iv.end);
    }
    const IntervalSet u = IntervalSet::set_union(x, y);
    const IntervalSet d = IntervalSet::set_difference(x, y);
    EXPECT_TRUE(IntervalSet::is_canonical(u.intervals()));
    EXPECT_TRUE(IntervalSet::is_canonical(d.intervals()));
    EXPECT_EQ(u, union_fold);
    EXPECT_EQ(d, diff_fold);
  };
  check(a, b);
  check(b, a);
  EXPECT_EQ(IntervalSet::set_union(a, IntervalSet()), a);
  EXPECT_EQ(IntervalSet::set_difference(a, IntervalSet()), a);
  EXPECT_TRUE(IntervalSet::set_difference(a, a).empty());
  EXPECT_TRUE(IntervalSet::set_difference(IntervalSet(), a).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(CidrCover, ExactRanges) {
  auto cover = cidr_cover(0, 256);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].to_string(), "0.0.0.0/24");
}

TEST(CidrCover, UnalignedRange) {
  // [1, 7) = 1/32, 2/31, 4/31, 6/32
  auto cover = cidr_cover(1, 7);
  uint64_t total = 0;
  for (const Prefix& p : cover) total += p.size();
  EXPECT_EQ(total, 6u);
  ASSERT_EQ(cover.size(), 4u);
}

TEST(CidrCover, WholeSpace) {
  auto cover = cidr_cover(0, uint64_t{1} << 32);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].length(), 0);
}

TEST(CidrCover, RejectsBadRange) {
  EXPECT_THROW(cidr_cover(10, 5), InvariantError);
  EXPECT_THROW(cidr_cover(0, (uint64_t{1} << 32) + 1), InvariantError);
}

class CidrCoverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CidrCoverPropertyTest, CoverIsExactDisjointAndMinimal) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.below(uint64_t{1} << 32);
    uint64_t b = rng.below(uint64_t{1} << 32);
    if (a > b) std::swap(a, b);
    auto cover = cidr_cover(a, b);
    // Exact: pieces tile [a, b) in order with no gaps or overlaps.
    uint64_t at = a;
    for (const Prefix& p : cover) {
      ASSERT_EQ(p.first(), at);
      at = p.end();
    }
    ASSERT_EQ(at, b);
    // Minimal: at most 2*32 pieces, and no two adjacent pieces of equal
    // size that could merge into an aligned parent.
    ASSERT_LE(cover.size(), 64u);
    for (size_t k = 1; k < cover.size(); ++k) {
      if (cover[k].length() == cover[k - 1].length() &&
          cover[k - 1].length() > 0) {
        EXPECT_NE(cover[k - 1].parent(), Prefix::containing(
            cover[k].network(), cover[k].length() - 1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CidrCoverPropertyTest,
                         ::testing::Values(7, 77, 777));

TEST(CidrCover, RoundTripsThroughIntervalSet) {
  IntervalSet s;
  s.insert(100, 1000);
  s.insert(5000, 5100);
  IntervalSet rebuilt;
  for (const Prefix& p : cidr_cover(s)) rebuilt.insert(p);
  EXPECT_EQ(rebuilt, s);
}

}  // namespace
}  // namespace droplens::net
