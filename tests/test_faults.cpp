// Fault-injection round trips: every substrate parser, fed deterministically
// corrupted input, must (a) under kStrict throw a ParseError naming where,
// (b) under kLenient never throw on record-level damage, and (c) account for
// every skipped record in its ParseReport. This file is the ASan/UBSan gate
// for the ingestion layer (see README "Fault drills"):
//   cmake -B build-asan -S . -DDROPLENS_SANITIZE=address
//   cmake --build build-asan -j && ctest --test-dir build-asan -L faults
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/mrt.hpp"
#include "drop/feed.hpp"
#include "irr/rpsl.hpp"
#include "net/date.hpp"
#include "net/prefix.hpp"
#include "rir/delegation.hpp"
#include "rpki/roa_csv.hpp"
#include "sim/fault_injector.hpp"
#include "util/error.hpp"
#include "util/parse_report.hpp"

namespace droplens {
namespace {

using util::ParsePolicy;
using util::ParseReport;

// One text substrate under test: a known-clean input, its record count, and
// a uniform parse entry point returning how many records came back.
struct TextSubstrate {
  std::string name;
  std::string clean;
  size_t records;
  std::function<size_t(std::string_view, ParsePolicy, ParseReport*)> parse;
};

std::string clean_drop_feed() {
  return
      "; Spamhaus DROP List 2022-03-30\n"
      "; Expires: 2022-03-31\n"
      "1.2.3.0/24 ; SBL123456\n"
      "41.0.0.0/8\n"
      "203.0.113.0/24 ; SBL9\n";
}

std::string clean_delegation_file() {
  std::vector<rir::DelegationRecord> records;
  rir::DelegationRecord r;
  r.registry = rir::Rir::kArin;
  r.country = "US";
  r.start = net::Ipv4::parse("10.0.0.0");
  r.value = 65536;
  r.date = net::Date::parse("2010-01-01");
  r.status = rir::DelegationStatus::kAllocated;
  r.opaque_id = "ORG-1";
  records.push_back(r);
  r.start = net::Ipv4::parse("11.0.0.0");
  r.date = net::Date::parse("2012-06-15");
  r.status = rir::DelegationStatus::kAssigned;
  r.opaque_id = "ORG-2";
  records.push_back(r);
  r.start = net::Ipv4::parse("12.0.0.0");
  r.date = net::Date(0);
  r.status = rir::DelegationStatus::kAvailable;
  r.opaque_id.clear();
  records.push_back(r);
  return rir::write_delegation_file(rir::Rir::kArin,
                                    net::Date::parse("2022-03-30"), records);
}

std::string clean_roa_csv() {
  return
      "URI,ASN,IP Prefix,Max Length,Not Before,Not After\n"
      "rsync://rpki.ripe.net/repository/0.roa,AS64500,10.0.0.0/16,24,"
      "2021-01-01,never\n"
      "rsync://rpki.apnic.net/repository/1.roa,AS64501,11.0.0.0/16,16,"
      "2021-01-01,2022-01-01\n"
      "rsync://rpki.arin.net/repository/2.roa,AS64502,12.0.0.0/12,16,"
      "2020-06-01,never\n";
}

std::string clean_rpsl() {
  std::string out;
  for (int i = 0; i < 3; ++i) {
    irr::RouteObject route;
    route.prefix = net::Prefix::parse(std::to_string(20 + i) + ".0.0.0/8");
    route.origin = net::Asn(static_cast<uint32_t>(64500 + i));
    route.maintainer = "MAINT-" + std::to_string(i);
    route.org_id = "ORG-" + std::to_string(i);
    route.descr = "test route";
    route.created = net::Date::parse("2020-01-01");
    out += route.to_rpsl();
    out += '\n';  // blank separator between objects
  }
  return out;
}

std::vector<TextSubstrate> text_substrates() {
  std::vector<TextSubstrate> out;
  out.push_back({"drop-feed", clean_drop_feed(), 3,
                 [](std::string_view text, ParsePolicy p, ParseReport* r) {
                   return drop::parse_drop_feed(text, p, r).size();
                 }});
  out.push_back({"delegations", clean_delegation_file(), 3,
                 [](std::string_view text, ParsePolicy p, ParseReport* r) {
                   return rir::parse_delegation_file(text, p, r).size();
                 }});
  out.push_back({"roas-csv", clean_roa_csv(), 3,
                 [](std::string_view text, ParsePolicy p, ParseReport* r) {
                   return rpki::parse_roa_csv(text, p, r).size();
                 }});
  out.push_back({"rpsl", clean_rpsl(), 3,
                 [](std::string_view text, ParsePolicy p, ParseReport* r) {
                   return irr::parse_rpsl(text, p, r).size();
                 }});
  return out;
}

std::string clean_mrtl() {
  std::vector<bgp::Update> updates;
  for (int i = 0; i < 6; ++i) {
    updates.push_back(bgp::Update{
        net::Date(100 + i), static_cast<uint32_t>(i),
        bgp::UpdateType::kAnnounce,
        net::Prefix::parse(std::to_string(10 + i) + ".0.0.0/8"),
        bgp::AsPath{net::Asn(1), net::Asn(static_cast<uint32_t>(2 + i))}});
  }
  std::stringstream buf;
  bgp::write_mrtl(buf, updates);
  return buf.str();
}

// ---------------------------------------------------------------------------
// Text substrates x fault kinds

TEST(FaultRoundTrip, SanityCleanInputsParseCleanly) {
  for (const TextSubstrate& s : text_substrates()) {
    ParseReport report(s.name);
    EXPECT_EQ(s.parse(s.clean, ParsePolicy::kLenient, &report), s.records)
        << s.name;
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.parsed(), s.records) << s.name;
  }
}

TEST(FaultRoundTrip, GarbageLinesCostExactlyOneSkipEach) {
  constexpr int kGarbage = 4;
  for (const TextSubstrate& s : text_substrates()) {
    sim::FaultInjector inj(7);
    std::string corrupted = inj.garbage_lines(s.clean, kGarbage);

    EXPECT_THROW(s.parse(corrupted, ParsePolicy::kStrict, nullptr),
                 ParseError)
        << s.name;

    ParseReport report(s.name);
    size_t records = 0;
    EXPECT_NO_THROW(
        records = s.parse(corrupted, ParsePolicy::kLenient, &report))
        << s.name;
    EXPECT_EQ(records, s.records) << s.name;
    EXPECT_EQ(report.parsed(), s.records) << s.name;
    EXPECT_EQ(report.skipped(), static_cast<size_t>(kGarbage)) << s.name;
    ASSERT_EQ(report.diagnostics().size(), static_cast<size_t>(kGarbage));
    for (const util::ParseDiagnostic& d : report.diagnostics()) {
      EXPECT_GT(d.line, 1u) << s.name;  // line 1 (the header) is never spliced
      EXPECT_FALSE(d.message.empty()) << s.name;
    }
  }
}

TEST(FaultRoundTrip, StrictErrorsNameTheLine) {
  for (const TextSubstrate& s : text_substrates()) {
    sim::FaultInjector inj(11);
    std::string corrupted = inj.garbage_lines(s.clean, 1);
    try {
      s.parse(corrupted, ParsePolicy::kStrict, nullptr);
      FAIL() << s.name << ": strict parse accepted garbage";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << s.name << ": " << e.what();
    }
  }
}

TEST(FaultRoundTrip, DuplicateLinesNeverBreakEitherPolicy) {
  constexpr int kDups = 4;
  for (const TextSubstrate& s : text_substrates()) {
    sim::FaultInjector inj(13);
    std::string corrupted = inj.duplicate_lines(s.clean, kDups);
    // Double-written lines are well-formed, so even strict mode survives.
    size_t strict = 0;
    EXPECT_NO_THROW(strict = s.parse(corrupted, ParsePolicy::kStrict, nullptr))
        << s.name;
    ParseReport report(s.name);
    size_t lenient = s.parse(corrupted, ParsePolicy::kLenient, &report);
    EXPECT_EQ(strict, lenient) << s.name;
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GE(lenient, s.records) << s.name;
    EXPECT_LE(lenient, s.records + kDups) << s.name;
  }
}

TEST(FaultRoundTrip, TruncationNeverThrowsLenient) {
  for (const TextSubstrate& s : text_substrates()) {
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      sim::FaultInjector inj(seed);
      std::string corrupted = inj.truncate(s.clean);
      ParseReport report(s.name);
      size_t records = 0;
      EXPECT_NO_THROW(
          records = s.parse(corrupted, ParsePolicy::kLenient, &report))
          << s.name << " seed " << seed;
      EXPECT_LE(records, s.records) << s.name << " seed " << seed;
      // At most the one line the cut landed on can go bad.
      EXPECT_LE(report.skipped(), 1u) << s.name << " seed " << seed;
    }
  }
}

TEST(FaultRoundTrip, CorruptHeaderSparesTheRecords) {
  for (const TextSubstrate& s : text_substrates()) {
    sim::FaultInjector inj(17);
    std::string corrupted = inj.corrupt_header(s.clean);
    ParseReport report(s.name);
    size_t records = 0;
    EXPECT_NO_THROW(
        records = s.parse(corrupted, ParsePolicy::kLenient, &report))
        << s.name;
    // Every original record lives on lines after the first, untouched.
    EXPECT_GE(records, s.records) << s.name;
  }
}

// ---------------------------------------------------------------------------
// MRTL (binary): header damage is fatal in both policies, record damage is
// recoverable in lenient mode.

TEST(FaultRoundTrip, MrtlCorruptHeaderIsFatalInBothPolicies) {
  std::string clean = clean_mrtl();
  sim::FaultInjector inj(19);
  std::string corrupted = inj.corrupt_header(clean);
  std::stringstream strict_in(corrupted);
  EXPECT_THROW(bgp::read_mrtl(strict_in, ParsePolicy::kStrict), ParseError);
  std::stringstream lenient_in(corrupted);
  ParseReport report("updates.mrtl");
  EXPECT_THROW(bgp::read_mrtl(lenient_in, ParsePolicy::kLenient, &report),
               ParseError);
}

TEST(FaultRoundTrip, MrtlDeclaredCountIsValidatedBeforeAllocating) {
  // Satellite guard: a bit-flipped count field must not drive a huge
  // allocation — the reader checks it against the bytes actually present.
  std::string clean = clean_mrtl();
  // Count is a little-endian u64 at bytes 6..13 (after magic + version).
  for (size_t i = 6; i < 14; ++i) clean[i] = static_cast<char>(0xff);
  for (ParsePolicy policy : {ParsePolicy::kStrict, ParsePolicy::kLenient}) {
    std::stringstream in(clean);
    try {
      bgp::read_mrtl(in, policy);
      FAIL() << "absurd record count accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("declares"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultRoundTrip, MrtlTruncationIsStrictFatalLenientAccounted) {
  std::string clean = clean_mrtl();
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    sim::FaultInjector inj(seed);
    std::string corrupted = inj.truncate(clean);
    {
      std::stringstream in(corrupted);
      EXPECT_THROW(bgp::read_mrtl(in, ParsePolicy::kStrict), ParseError)
          << "seed " << seed;
    }
    std::stringstream in(corrupted);
    ParseReport report("updates.mrtl");
    try {
      std::vector<bgp::Update> updates =
          bgp::read_mrtl(in, ParsePolicy::kLenient, &report);
      // Salvaged: everything that parsed plus one diagnostic for the rest.
      EXPECT_LT(updates.size(), 6u) << "seed " << seed;
      EXPECT_EQ(report.parsed(), updates.size()) << "seed " << seed;
      EXPECT_EQ(report.skipped(), 1u) << "seed " << seed;
      EXPECT_NE(report.diagnostics().front().message.find("dropped remaining"),
                std::string::npos)
          << "seed " << seed;
    } catch (const ParseError&) {
      // Also fine: the cut landed in (or invalidated) the header, which is
      // unusable in any policy — the caller marks the day unavailable.
    }
  }
}

TEST(FaultRoundTrip, MrtlBitFlipsNeverEscapeParseError) {
  std::string clean = clean_mrtl();
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    sim::FaultInjector inj(seed);
    std::string corrupted = inj.flip_bits(clean, 8);
    std::stringstream in(corrupted);
    ParseReport report("updates.mrtl");
    try {
      std::vector<bgp::Update> updates =
          bgp::read_mrtl(in, ParsePolicy::kLenient, &report);
      EXPECT_LE(updates.size(), 6u) << "seed " << seed;
      EXPECT_EQ(report.parsed(), updates.size()) << "seed " << seed;
    } catch (const ParseError&) {
      // Header flips are fatal by design; anything else must not escape.
    } catch (const std::exception& e) {
      FAIL() << "non-ParseError exception on seed " << seed << ": "
             << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Injector mechanics

TEST(FaultInjector, SameSeedSameFaults) {
  std::string input = clean_roa_csv();
  for (sim::FaultKind kind : sim::kAllFaultKinds) {
    sim::FaultInjector a(99), b(99);
    EXPECT_EQ(a.apply(kind, input), b.apply(kind, input))
        << sim::to_string(kind);
  }
  sim::FaultInjector a(1), b(2);
  EXPECT_NE(a.garbage_lines(input), b.garbage_lines(input));
}

TEST(FaultInjector, DropDaysRemovesAndReportsSorted) {
  sim::FaultInjector::DailyArchive days;
  for (int i = 0; i < 10; ++i) {
    days.emplace_back(net::Date(1000 + i), "snapshot " + std::to_string(i));
  }
  sim::FaultInjector inj(5);
  std::vector<net::Date> dropped = inj.drop_days(days, 3);
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(days.size(), 7u);
  EXPECT_TRUE(std::is_sorted(dropped.begin(), dropped.end()));
  for (const auto& [date, text] : days) {
    for (net::Date d : dropped) EXPECT_NE(date, d);
  }
  // Dropping more days than exist empties the archive without looping.
  std::vector<net::Date> rest = inj.drop_days(days, 100);
  EXPECT_EQ(rest.size(), 7u);
  EXPECT_TRUE(days.empty());
}

TEST(FaultInjector, ShuffleDaysPermutesWithoutLoss) {
  sim::FaultInjector::DailyArchive days;
  for (int i = 0; i < 12; ++i) {
    days.emplace_back(net::Date(2000 + i), std::to_string(i));
  }
  sim::FaultInjector::DailyArchive original = days;
  sim::FaultInjector inj(21);
  inj.shuffle_days(days);
  EXPECT_NE(days, original);  // seed 21 does move something
  std::map<net::Date, std::string> a(days.begin(), days.end());
  std::map<net::Date, std::string> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(ParseReport, CapsDiagnosticsButKeepsCounting) {
  ParseReport report("big.feed");
  for (size_t i = 0; i < 3 * ParseReport::kMaxDiagnostics; ++i) {
    report.add_error(i + 1, "bad");
  }
  EXPECT_EQ(report.diagnostics().size(), ParseReport::kMaxDiagnostics);
  EXPECT_EQ(report.skipped(), 3 * ParseReport::kMaxDiagnostics);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("big.feed"), std::string::npos);
}

}  // namespace
}  // namespace droplens
