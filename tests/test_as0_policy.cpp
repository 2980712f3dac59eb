#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/cidr_cover.hpp"
#include "rpki/as0_policy.hpp"
#include "sim/generator.hpp"

namespace droplens::rpki {
namespace {

net::Date D(const char* s) { return net::Date::parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s); }

TEST(As0PolicyDates, MatchThePaper) {
  EXPECT_EQ(*as0_policy_date(rir::Rir::kApnic), D("2020-09-02"));
  EXPECT_EQ(*as0_policy_date(rir::Rir::kLacnic), D("2021-06-23"));
  EXPECT_FALSE(as0_policy_date(rir::Rir::kArin).has_value());
  EXPECT_FALSE(as0_policy_date(rir::Rir::kRipe).has_value());
  EXPECT_FALSE(as0_policy_date(rir::Rir::kAfrinic).has_value());
}

class As0EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry.administer(rir::Rir::kApnic, P("1.0.0.0/8"));
    registry.administer(rir::Rir::kArin, P("8.0.0.0/8"));
  }
  rir::Registry registry;
  RoaArchive archive;
};

TEST_F(As0EngineTest, NoopBeforePolicyDate) {
  As0PolicyEngine engine(registry, archive);
  EXPECT_EQ(engine.sync(rir::Rir::kApnic, D("2020-09-01")), 0u);
  EXPECT_EQ(archive.total_published(), 0u);
}

TEST_F(As0EngineTest, NoopForRirsWithoutPolicy) {
  As0PolicyEngine engine(registry, archive);
  EXPECT_EQ(engine.sync(rir::Rir::kArin, D("2022-01-01")), 0u);
}

TEST_F(As0EngineTest, CoversFreePoolUnderAs0Tal) {
  As0PolicyEngine engine(registry, archive);
  net::Date d = D("2020-09-02");
  EXPECT_GT(engine.sync(rir::Rir::kApnic, d), 0u);
  // The whole (unallocated) /8 is covered, but only under the AS0 TAL.
  TalSet as0_only;
  as0_only.add(Tal::kApnicAs0);
  EXPECT_EQ(archive.signed_space(d, as0_only).slash8_equivalents(), 1.0);
  EXPECT_FALSE(archive.signed_on(P("1.2.0.0/16"), d));  // default TALs
  EXPECT_EQ(archive.validate_route(P("1.2.0.0/16"), net::Asn(5), d,
                                   TalSet::all()),
            Validity::kInvalid);
}

TEST_F(As0EngineTest, SyncIsIdempotent) {
  As0PolicyEngine engine(registry, archive);
  net::Date d = D("2020-10-01");
  engine.sync(rir::Rir::kApnic, d);
  EXPECT_EQ(engine.sync(rir::Rir::kApnic, d), 0u);
}

TEST_F(As0EngineTest, AllocationShrinksAs0Coverage) {
  As0PolicyEngine engine(registry, archive);
  net::Date d1 = D("2020-10-01");
  engine.sync(rir::Rir::kApnic, d1);
  // The RIR allocates a /16; the next sync must revoke and re-publish so
  // the allocated space is no longer AS0-covered.
  net::Date d2 = D("2021-02-01");
  registry.allocate(P("1.2.0.0/16"), rir::Rir::kApnic, "org", d2);
  EXPECT_GT(engine.sync(rir::Rir::kApnic, d2), 0u);
  TalSet as0_only;
  as0_only.add(Tal::kApnicAs0);
  net::IntervalSet covered = archive.signed_space(d2, as0_only);
  EXPECT_FALSE(covered.intersects(P("1.2.0.0/16")));
  EXPECT_DOUBLE_EQ(covered.slash8_equivalents(),
                   1.0 - net::Prefix::parse("1.2.0.0/16")
                             .slash8_equivalents());
}

TEST_F(As0EngineTest, SyncAllCoversActivePoliciesOnly) {
  registry.administer(rir::Rir::kLacnic, P("177.0.0.0/8"));
  As0PolicyEngine engine(registry, archive);
  // Between the APNIC and LACNIC policy dates only APNIC syncs.
  EXPECT_GT(engine.sync_all(D("2021-01-01")), 0u);
  TalSet lacnic_as0;
  lacnic_as0.add(Tal::kLacnicAs0);
  EXPECT_TRUE(archive.signed_space(D("2021-01-01"), lacnic_as0).empty());
  // After June 23, 2021, LACNIC joins.
  engine.sync_all(D("2021-07-01"));
  EXPECT_FALSE(archive.signed_space(D("2021-07-01"), lacnic_as0).empty());
}

// ---------------------------------------------------------------------------
// The one-call schedule against the per-date oracle.

// Oracle: the straightforward per-date sync. It recomputes the free pool
// from the registry trie and the live ROAs from the archive trie on every
// call, and matches the two with a linear scan.
size_t oracle_sync(const rir::Registry& registry, RoaArchive& archive,
                   rir::Rir rir, net::Date d) {
  std::optional<Tal> tal = as0_tal(rir);
  std::optional<net::Date> start = as0_policy_date(rir);
  if (!tal || !start || d < *start) return 0;

  TalSet only;
  only.add(*tal);

  std::vector<net::Prefix> want = net::cidr_cover(registry.free_pool(rir, d));
  std::vector<Roa> have = archive.live_roas(d, only);

  size_t ops = 0;
  for (const Roa& roa : have) {
    if (!std::binary_search(want.begin(), want.end(), roa.prefix)) {
      archive.revoke(roa, d);
      ++ops;
    }
  }
  for (const net::Prefix& p : want) {
    bool present = std::any_of(have.begin(), have.end(), [&](const Roa& r) {
      return r.prefix == p;
    });
    if (!present) {
      archive.publish(Roa(p, net::Asn::as0(), *tal), d);
      ++ops;
    }
  }
  return ops;
}

size_t oracle_schedule(const rir::Registry& registry, RoaArchive& archive,
                       const std::vector<net::Date>& dates) {
  size_t ops = 0;
  for (net::Date d : dates) {
    for (rir::Rir r : rir::kAllRirs) ops += oracle_sync(registry, archive, r, d);
  }
  return ops;
}

std::string describe(const RoaRecord& r) {
  return r.roa.to_string() + " [" + std::to_string(r.lifetime.begin.days()) +
         ", " + std::to_string(r.lifetime.end.days()) + ")";
}

// Same records in the same all_records() order, lifetimes included.
void expect_same_records(const RoaArchive& got, const RoaArchive& want) {
  std::vector<RoaRecord> a = got.all_records();
  std::vector<RoaRecord> b = want.all_records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(describe(a[i]), describe(b[i])) << "record " << i;
  }
}

// A registry whose pools change between schedule dates: allocations that
// start, end and start again, some on a policy date itself.
class As0ScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry.administer(rir::Rir::kApnic, P("1.0.0.0/8"));
    registry.administer(rir::Rir::kApnic, P("27.0.0.0/8"));
    registry.administer(rir::Rir::kLacnic, P("177.0.0.0/8"));
    registry.administer(rir::Rir::kArin, P("8.0.0.0/8"));

    registry.allocate(P("1.0.0.0/16"), rir::Rir::kApnic, "a", D("2019-01-01"));
    registry.allocate(P("1.2.0.0/16"), rir::Rir::kApnic, "b", D("2020-10-15"));
    registry.deallocate(P("1.2.0.0/16"), D("2021-01-10"));
    registry.allocate(P("1.2.0.0/16"), rir::Rir::kApnic, "c", D("2021-03-05"));
    registry.allocate(P("1.128.0.0/10"), rir::Rir::kApnic, "d",
                      D("2019-06-01"));
    registry.deallocate(P("1.128.0.0/10"), D("2020-12-20"));
    registry.allocate(P("27.0.0.0/9"), rir::Rir::kApnic, "e", D("2020-09-02"));
    registry.allocate(P("177.0.0.0/12"), rir::Rir::kLacnic, "f",
                      D("2021-06-23"));
    registry.deallocate(P("177.0.0.0/12"), D("2021-09-01"));
    registry.allocate(P("177.64.0.0/10"), rir::Rir::kLacnic, "g",
                      D("2020-01-01"));
    registry.allocate(P("8.8.0.0/16"), rir::Rir::kArin, "h", D("2020-01-01"));
  }

  // The archive before the first sync: AS0-TAL ROAs already present, one
  // live throughout (with a second, longer-maxLength record on the same
  // prefix) and one revoked between two schedule dates; plus production-TAL
  // ROAs the sync must leave alone.
  void seed(RoaArchive& archive) const {
    archive.publish(Roa(P("1.64.0.0/10"), net::Asn::as0(), Tal::kApnicAs0),
                    D("2020-08-01"));
    archive.publish(
        Roa(P("1.64.0.0/10"), net::Asn::as0(), Tal::kApnicAs0, 24),
        D("2020-08-01"));
    Roa ends(P("1.192.0.0/10"), net::Asn::as0(), Tal::kApnicAs0);
    archive.publish(ends, D("2020-06-01"));
    archive.revoke(ends, D("2020-11-15"));
    archive.publish(Roa(P("177.128.0.0/9"), net::Asn::as0(), Tal::kLacnicAs0),
                    D("2021-01-01"));
    archive.publish(Roa(P("1.0.0.0/16"), net::Asn(4608), Tal::kApnic),
                    D("2019-02-01"));
    archive.publish(Roa(P("177.64.0.0/10"), net::Asn(28573), Tal::kLacnic),
                    D("2020-02-01"));
  }

  // Before, on and after each policy date, pool changes in between, and one
  // date repeated.
  const std::vector<net::Date> schedule = {
      D("2020-09-01"), D("2020-09-02"), D("2020-09-03"), D("2020-10-01"),
      D("2020-11-01"), D("2020-12-01"), D("2021-01-01"), D("2021-01-01"),
      D("2021-02-01"), D("2021-04-01"), D("2021-06-22"), D("2021-06-23"),
      D("2021-06-24"), D("2021-08-01"), D("2021-10-01")};

  rir::Registry registry;
};

TEST_F(As0ScheduleTest, EveryPrefixOfTheScheduleMatchesThePerDateOracle) {
  // k = 0 is the empty schedule.
  for (size_t k = 0; k <= schedule.size(); ++k) {
    SCOPED_TRACE(k);
    std::vector<net::Date> dates(schedule.begin(), schedule.begin() + k);
    RoaArchive by_oracle, by_schedule, by_date;
    seed(by_oracle);
    seed(by_schedule);
    seed(by_date);

    size_t oracle_ops = oracle_schedule(registry, by_oracle, dates);
    As0PolicyEngine engine(registry, by_schedule);
    EXPECT_EQ(engine.sync_schedule(dates), oracle_ops);
    expect_same_records(by_schedule, by_oracle);

    // The one-date entry points are the same code, one date at a time.
    As0PolicyEngine single(registry, by_date);
    size_t date_ops = 0;
    for (size_t i = 0; i < k; ++i) {
      if (i % 2 == 0) {
        date_ops += single.sync_all(dates[i]);
      } else {
        for (rir::Rir r : rir::kAllRirs) date_ops += single.sync(r, dates[i]);
      }
    }
    EXPECT_EQ(date_ops, oracle_ops);
    expect_same_records(by_date, by_oracle);
  }
}

TEST_F(As0ScheduleTest, EmptyScheduleAndRepeatedDateAreNoops) {
  RoaArchive archive, untouched;
  seed(archive);
  seed(untouched);
  As0PolicyEngine engine(registry, archive);
  EXPECT_EQ(engine.sync_schedule({}), 0u);
  expect_same_records(archive, untouched);

  std::vector<net::Date> once = {D("2021-07-01")};
  std::vector<net::Date> twice = {D("2021-07-01"), D("2021-07-01")};
  RoaArchive after_once, after_twice;
  seed(after_once);
  seed(after_twice);
  size_t ops = As0PolicyEngine(registry, after_once).sync_schedule(once);
  EXPECT_GT(ops, 0u);
  EXPECT_EQ(As0PolicyEngine(registry, after_twice).sync_schedule(twice), ops);
  expect_same_records(after_twice, after_once);
}

// Rebuild a generated world's archive as it stood before its AS0 sync, run
// the oracle loop and the one-call schedule on two copies, and require both
// to reproduce the generated archive.
void expect_schedule_regenerates(const sim::ScenarioConfig& cfg) {
  std::unique_ptr<sim::World> world = sim::generate(cfg);
  auto without_as0 = [&](RoaArchive& out) {
    world->roas.for_each_record([&](const RoaRecord& r) {
      if (is_as0_tal(r.roa.tal)) return;
      out.publish(r.roa, r.lifetime.begin);
      if (r.lifetime.end != net::DateRange::unbounded()) {
        out.revoke(r.roa, r.lifetime.end);
      }
    });
  };
  // The generator's monthly schedule.
  std::vector<net::Date> schedule;
  for (net::Date d = cfg.window_begin; d < cfg.window_end; d += 30) {
    schedule.push_back(d);
  }
  schedule.push_back(cfg.window_end);

  RoaArchive by_oracle, by_schedule;
  without_as0(by_oracle);
  without_as0(by_schedule);
  size_t oracle_ops = oracle_schedule(world->registry, by_oracle, schedule);
  size_t ops =
      As0PolicyEngine(world->registry, by_schedule).sync_schedule(schedule);
  EXPECT_GT(ops, 0u);
  EXPECT_EQ(ops, oracle_ops);
  expect_same_records(by_schedule, by_oracle);
  expect_same_records(by_schedule, world->roas);
}

TEST(As0Schedule, RegeneratesTheSmallWorldArchive) {
  expect_schedule_regenerates(sim::ScenarioConfig::small());
}

TEST(As0Schedule, RegeneratesThePaperScaleArchive) {
  expect_schedule_regenerates(sim::ScenarioConfig());
}

}  // namespace
}  // namespace droplens::rpki
