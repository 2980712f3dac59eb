#include <gtest/gtest.h>

#include <map>

#include "net/prefix_trie.hpp"
#include "sim/rng.hpp"

namespace droplens::net {
namespace {

TEST(PrefixMap, InsertFindErase) {
  PrefixMap<int> m;
  Prefix p = Prefix::parse("10.0.0.0/8");
  EXPECT_EQ(m.find(p), nullptr);
  m.insert_or_assign(p, 7);
  ASSERT_NE(m.find(p), nullptr);
  EXPECT_EQ(*m.find(p), 7);
  EXPECT_EQ(m.size(), 1u);
  m.insert_or_assign(p, 9);  // overwrite, not duplicate
  EXPECT_EQ(*m.find(p), 9);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(p));
  EXPECT_FALSE(m.erase(p));
  EXPECT_EQ(m.find(p), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(PrefixMap, ExactMatchDistinguishesLengths) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 8);
  m.insert_or_assign(Prefix::parse("10.0.0.0/16"), 16);
  EXPECT_EQ(*m.find(Prefix::parse("10.0.0.0/8")), 8);
  EXPECT_EQ(*m.find(Prefix::parse("10.0.0.0/16")), 16);
  EXPECT_EQ(m.find(Prefix::parse("10.0.0.0/12")), nullptr);
}

TEST(PrefixMap, SubscriptDefaultConstructs) {
  PrefixMap<std::vector<int>> m;
  m[Prefix::parse("10.0.0.0/8")].push_back(1);
  m[Prefix::parse("10.0.0.0/8")].push_back(2);
  EXPECT_EQ(m.find(Prefix::parse("10.0.0.0/8"))->size(), 2u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(PrefixMap, RootValue) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix(), 42);  // 0.0.0.0/0
  int seen = 0;
  m.for_each_covering(Prefix::parse("192.0.2.0/24"),
                      [&](const Prefix& p, int v) {
                        EXPECT_EQ(p.length(), 0);
                        seen = v;
                      });
  EXPECT_EQ(seen, 42);
}

TEST(PrefixMap, CoveringOrderIsRootDown) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 8);
  m.insert_or_assign(Prefix::parse("10.2.0.0/16"), 16);
  m.insert_or_assign(Prefix::parse("10.2.3.0/24"), 24);
  std::vector<int> seen;
  m.for_each_covering(Prefix::parse("10.2.3.0/24"),
                      [&](const Prefix&, int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{8, 16, 24}));
}

TEST(PrefixMap, CoveredVisitsSubtreeOnly) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 1);
  m.insert_or_assign(Prefix::parse("10.2.0.0/16"), 2);
  m.insert_or_assign(Prefix::parse("11.0.0.0/8"), 3);
  std::vector<int> seen;
  m.for_each_covered(Prefix::parse("10.0.0.0/8"),
                     [&](const Prefix&, int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(PrefixMap, LongestMatch) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 8);
  m.insert_or_assign(Prefix::parse("10.2.0.0/16"), 16);
  Prefix matched;
  const int* v = m.longest_match(Prefix::parse("10.2.3.0/24"), &matched);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 16);
  EXPECT_EQ(matched, Prefix::parse("10.2.0.0/16"));
  EXPECT_EQ(m.longest_match(Prefix::parse("12.0.0.0/8")), nullptr);
}

TEST(PrefixMap, MoveSemantics) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 1);
  PrefixMap<int> n = std::move(m);
  EXPECT_EQ(n.size(), 1u);
  ASSERT_NE(n.find(Prefix::parse("10.0.0.0/8")), nullptr);
}

// Regression: the defaulted move ops stole root_'s children but left size_
// behind, so a moved-from map reported size() > 0 while holding nothing.
TEST(PrefixMap, MovedFromMapIsEmpty) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 1);
  m.insert_or_assign(Prefix::parse("11.0.0.0/8"), 2);

  PrefixMap<int> n = std::move(m);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(n.size(), 2u);

  // Move assignment, same contract; the source must be reusable.
  PrefixMap<int> o;
  o.insert_or_assign(Prefix::parse("12.0.0.0/8"), 3);
  o = std::move(n);
  EXPECT_EQ(n.size(), 0u);
  EXPECT_TRUE(n.empty());
  EXPECT_EQ(o.size(), 2u);
  n.insert_or_assign(Prefix::parse("13.0.0.0/8"), 4);
  EXPECT_EQ(n.size(), 1u);
  ASSERT_NE(n.find(Prefix::parse("13.0.0.0/8")), nullptr);
}

// Regression: erase() left every interior node on the descent path alive
// forever, so add/erase churn (BGP fleets, IRR snapshot replays) grew the
// trie monotonically. Pruning must drop childless value-less nodes.
TEST(PrefixMap, ErasePrunesEmptyInteriorNodes) {
  PrefixMap<int> m;
  const size_t empty_nodes = m.node_count();  // just the root
  m.insert_or_assign(Prefix::parse("10.2.3.0/24"), 1);
  const size_t with_entry = m.node_count();
  EXPECT_EQ(with_entry, empty_nodes + 24);

  EXPECT_TRUE(m.erase(Prefix::parse("10.2.3.0/24")));
  EXPECT_EQ(m.node_count(), empty_nodes);

  // Churn: node count must not grow across add/erase cycles.
  for (int round = 0; round < 100; ++round) {
    Prefix p = Prefix::containing(
        Ipv4(static_cast<uint32_t>(round) * 0x01010101u), 24);
    m.insert_or_assign(p, round);
    ASSERT_TRUE(m.erase(p));
    ASSERT_EQ(m.node_count(), empty_nodes) << "round " << round;
  }
}

// Pruning must stop at nodes still carrying a value or a sibling subtree.
TEST(PrefixMap, EraseKeepsNodesStillInUse) {
  PrefixMap<int> m;
  m.insert_or_assign(Prefix::parse("10.0.0.0/8"), 8);
  m.insert_or_assign(Prefix::parse("10.2.0.0/16"), 16);
  const size_t before = m.node_count();
  m.insert_or_assign(Prefix::parse("10.2.3.0/24"), 24);
  EXPECT_TRUE(m.erase(Prefix::parse("10.2.3.0/24")));
  EXPECT_EQ(m.node_count(), before);
  // The ancestors with values survived.
  EXPECT_NE(m.find(Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_NE(m.find(Prefix::parse("10.2.0.0/16")), nullptr);
  Prefix matched;
  ASSERT_NE(m.longest_match(Prefix::parse("10.2.3.0/24"), &matched), nullptr);
  EXPECT_EQ(matched, Prefix::parse("10.2.0.0/16"));
}

// The tightened longest_match must agree with the covering-walk definition,
// including a value at the root and an exact match at the key itself.
TEST(PrefixMap, LongestMatchAgreesWithCoveringWalk) {
  sim::Rng rng(99);
  PrefixMap<int> m;
  m.insert_or_assign(Prefix(), -1);  // 0.0.0.0/0
  for (int i = 0; i < 300; ++i) {
    int len = 1 + static_cast<int>(rng.below(32));
    m.insert_or_assign(
        Prefix::containing(Ipv4(static_cast<uint32_t>(rng.next())), len), i);
  }
  for (int probe = 0; probe < 300; ++probe) {
    int len = static_cast<int>(rng.below(33));
    Prefix q = Prefix::containing(Ipv4(static_cast<uint32_t>(rng.next())),
                                  len);
    const int* ref = nullptr;
    Prefix ref_matched;
    m.for_each_covering(q, [&](const Prefix& p, const int& v) {
      ref = &v;
      ref_matched = p;
    });
    Prefix got_matched;
    const int* got = m.longest_match(q, &got_matched);
    ASSERT_EQ(got, ref);
    if (got) {
      ASSERT_EQ(got_matched, ref_matched);
    }
  }
}

// Property sweep: trie traversals agree with a brute-force scan over a
// std::map reference model.
class TriePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriePropertyTest, AgreesWithBruteForce) {
  sim::Rng rng(GetParam());
  PrefixMap<int> trie;
  std::map<Prefix, int> model;
  for (int i = 0; i < 400; ++i) {
    int len = 4 + static_cast<int>(rng.below(25));
    Prefix p = Prefix::containing(Ipv4(static_cast<uint32_t>(rng.next())),
                                  len);
    if (rng.chance(0.85)) {
      trie.insert_or_assign(p, i);
      model[p] = i;
    } else {
      bool a = trie.erase(p);
      bool b = model.erase(p) > 0;
      ASSERT_EQ(a, b);
    }
  }
  ASSERT_EQ(trie.size(), model.size());

  for (int probe = 0; probe < 200; ++probe) {
    int len = static_cast<int>(rng.below(33));
    Prefix q = Prefix::containing(Ipv4(static_cast<uint32_t>(rng.next())),
                                  len);
    // exact
    const int* got = trie.find(q);
    auto it = model.find(q);
    ASSERT_EQ(got != nullptr, it != model.end());
    if (got) {
      ASSERT_EQ(*got, it->second);
    }
    // covering
    std::multiset<int> trie_covering, model_covering;
    trie.for_each_covering(q, [&](const Prefix&, int v) {
      trie_covering.insert(v);
    });
    for (const auto& [p, v] : model) {
      if (p.contains(q)) model_covering.insert(v);
    }
    ASSERT_EQ(trie_covering, model_covering);
    // covered
    std::multiset<int> trie_covered, model_covered;
    trie.for_each_covered(q, [&](const Prefix&, int v) {
      trie_covered.insert(v);
    });
    for (const auto& [p, v] : model) {
      if (q.contains(p)) model_covered.insert(v);
    }
    ASSERT_EQ(trie_covered, model_covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         ::testing::Values(5, 55, 555, 5555));

}  // namespace
}  // namespace droplens::net
