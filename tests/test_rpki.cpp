#include <gtest/gtest.h>

#include "rpki/archive.hpp"
#include "rpki/roa.hpp"
#include "rpki/rtr.hpp"
#include "rpki/tal.hpp"
#include "util/error.hpp"

namespace droplens::rpki {
namespace {

net::Date D(int d) { return net::Date(d); }
net::Asn A(uint32_t a) { return net::Asn(a); }
net::Prefix P(const char* s) { return net::Prefix::parse(s); }

TEST(Roa, MaxLengthDefaultsToPrefixLength) {
  Roa roa(P("10.0.0.0/16"), A(100), Tal::kRipe);
  EXPECT_EQ(roa.max_length, 16);
  EXPECT_TRUE(roa.matches(P("10.0.0.0/16"), A(100)));
  EXPECT_FALSE(roa.matches(P("10.0.0.0/17"), A(100)));  // too specific
  EXPECT_FALSE(roa.matches(P("10.0.0.0/16"), A(200)));  // wrong origin
  EXPECT_FALSE(roa.matches(P("11.0.0.0/16"), A(100)));  // not covered
}

TEST(Roa, MaxLengthAllowsMoreSpecifics) {
  Roa roa(P("10.0.0.0/16"), A(100), Tal::kRipe, 24);
  EXPECT_TRUE(roa.matches(P("10.0.3.0/24"), A(100)));
  EXPECT_FALSE(roa.matches(P("10.0.3.0/25"), A(100)));
}

TEST(Roa, MaxLengthValidation) {
  EXPECT_THROW(Roa(P("10.0.0.0/16"), A(1), Tal::kRipe, 8), InvariantError);
  EXPECT_THROW(Roa(P("10.0.0.0/16"), A(1), Tal::kRipe, 33), InvariantError);
}

TEST(Roa, As0NeverMatches) {
  Roa roa(P("10.0.0.0/16"), net::Asn::as0(), Tal::kLacnic, 24);
  EXPECT_TRUE(roa.is_as0());
  EXPECT_FALSE(roa.matches(P("10.0.0.0/16"), net::Asn::as0()));
  EXPECT_FALSE(roa.matches(P("10.0.0.0/16"), A(100)));
}

TEST(Validation, ThreeStates) {
  std::vector<Roa> covering;
  EXPECT_EQ(validate(covering, P("10.0.0.0/16"), A(1)),
            Validity::kNotFound);
  covering.push_back(Roa(P("10.0.0.0/8"), A(1), Tal::kRipe, 16));
  EXPECT_EQ(validate(covering, P("10.0.0.0/16"), A(1)), Validity::kValid);
  EXPECT_EQ(validate(covering, P("10.0.0.0/16"), A(2)), Validity::kInvalid);
}

TEST(Validation, As0MakesCoveredInvalid) {
  std::vector<Roa> covering = {
      Roa(P("10.0.0.0/8"), net::Asn::as0(), Tal::kApnicAs0)};
  EXPECT_EQ(validate(covering, P("10.2.0.0/16"), A(1)), Validity::kInvalid);
}

TEST(Validation, AnyMatchingRoaWins) {
  std::vector<Roa> covering = {
      Roa(P("10.0.0.0/16"), A(1), Tal::kRipe),
      Roa(P("10.0.0.0/16"), A(2), Tal::kRipe),
  };
  EXPECT_EQ(validate(covering, P("10.0.0.0/16"), A(2)), Validity::kValid);
}

TEST(TalSet, DefaultsExcludeAs0Tals) {
  TalSet d = TalSet::defaults();
  EXPECT_TRUE(d.has(Tal::kArin));
  EXPECT_TRUE(d.has(Tal::kRipe));
  EXPECT_FALSE(d.has(Tal::kApnicAs0));
  EXPECT_FALSE(d.has(Tal::kLacnicAs0));
  EXPECT_TRUE(TalSet::all().has(Tal::kApnicAs0));
}

TEST(Tal, ProductionAndAs0Mapping) {
  EXPECT_EQ(production_tal(rir::Rir::kRipe), Tal::kRipe);
  EXPECT_EQ(*as0_tal(rir::Rir::kApnic), Tal::kApnicAs0);
  EXPECT_FALSE(as0_tal(rir::Rir::kArin).has_value());
  EXPECT_TRUE(is_as0_tal(Tal::kLacnicAs0));
  EXPECT_FALSE(is_as0_tal(Tal::kLacnic));
}

class ArchiveTest : public ::testing::Test {
 protected:
  RoaArchive archive;
};

TEST_F(ArchiveTest, PublishRevokeLifecycle) {
  Roa roa(P("10.0.0.0/16"), A(100), Tal::kRipe);
  archive.publish(roa, D(100));
  EXPECT_FALSE(archive.signed_on(P("10.0.0.0/16"), D(99)));
  EXPECT_TRUE(archive.signed_on(P("10.0.0.0/16"), D(100)));
  EXPECT_TRUE(archive.revoke(roa, D(200)));
  EXPECT_FALSE(archive.signed_on(P("10.0.0.0/16"), D(200)));
  EXPECT_TRUE(archive.signed_on(P("10.0.0.0/16"), D(150)));
  EXPECT_FALSE(archive.revoke(roa, D(300)));  // nothing live
}

TEST_F(ArchiveTest, SignedOnSeesCoveringRoas) {
  archive.publish(Roa(P("10.0.0.0/8"), A(1), Tal::kArin), D(0));
  EXPECT_TRUE(archive.signed_on(P("10.2.0.0/16"), D(1)));
  EXPECT_FALSE(archive.signed_on(P("11.0.0.0/16"), D(1)));
}

TEST_F(ArchiveTest, ValidateRouteAgainstDate) {
  archive.publish(Roa(P("10.0.0.0/16"), A(100), Tal::kRipe), D(100));
  EXPECT_EQ(archive.validate_route(P("10.0.0.0/16"), A(100), D(50)),
            Validity::kNotFound);
  EXPECT_EQ(archive.validate_route(P("10.0.0.0/16"), A(100), D(150)),
            Validity::kValid);
  EXPECT_EQ(archive.validate_route(P("10.0.0.0/16"), A(9), D(150)),
            Validity::kInvalid);
}

TEST_F(ArchiveTest, TalFilteringRespectED) {
  archive.publish(Roa(P("10.0.0.0/8"), net::Asn::as0(), Tal::kApnicAs0),
                  D(0));
  // Default validator does not see the AS0 TAL.
  EXPECT_EQ(archive.validate_route(P("10.2.0.0/16"), A(5), D(1)),
            Validity::kNotFound);
  EXPECT_FALSE(archive.signed_on(P("10.2.0.0/16"), D(1)));
  // A validator with the AS0 TAL configured rejects.
  EXPECT_EQ(archive.validate_route(P("10.2.0.0/16"), A(5), D(1),
                                   TalSet::all()),
            Validity::kInvalid);
}

TEST_F(ArchiveTest, FirstSignedScansLifetimes) {
  archive.publish(Roa(P("10.0.0.0/16"), A(1), Tal::kRipe), D(300));
  archive.publish(Roa(P("10.0.0.0/8"), A(2), Tal::kRipe), D(200));
  auto first = archive.first_signed(P("10.0.0.0/16"));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, D(200));
  EXPECT_FALSE(archive.first_signed(P("11.0.0.0/8")).has_value());
}

TEST_F(ArchiveTest, SignedSpaceFilters) {
  archive.publish(Roa(P("10.0.0.0/8"), A(1), Tal::kRipe), D(0));
  archive.publish(Roa(P("11.0.0.0/8"), net::Asn::as0(), Tal::kRipe), D(0));
  EXPECT_EQ(archive.signed_space(D(1)).slash8_equivalents(), 2.0);
  EXPECT_EQ(archive
                .signed_space(D(1), TalSet::defaults(),
                              RoaArchive::Filter::kNonAs0Only)
                .slash8_equivalents(),
            1.0);
  EXPECT_EQ(archive
                .signed_space(D(1), TalSet::defaults(),
                              RoaArchive::Filter::kAs0Only)
                .slash8_equivalents(),
            1.0);
}

TEST_F(ArchiveTest, MaxLengthMonotonicity) {
  // Raising maxLength never invalidates a previously valid route.
  for (int ml = 16; ml <= 32; ++ml) {
    RoaArchive a;
    a.publish(Roa(P("10.0.0.0/16"), A(1), Tal::kRipe, ml), D(0));
    EXPECT_EQ(a.validate_route(P("10.0.0.0/16"), A(1), D(1)),
              Validity::kValid)
        << ml;
  }
}

// --- RTR PDU codec ---------------------------------------------------------

TEST(Rtr, PduSerializationRoundTrip) {
  std::vector<Pdu> pdus;
  {
    Pdu p;
    p.type = PduType::kSerialNotify;
    p.session_id = 7;
    p.serial = 42;
    pdus.push_back(p);
    p.type = PduType::kSerialQuery;
    pdus.push_back(p);
    Pdu q;
    q.type = PduType::kResetQuery;
    pdus.push_back(q);
    Pdu c;
    c.type = PduType::kCacheResponse;
    c.session_id = 7;
    pdus.push_back(c);
    Pdu v;
    v.type = PduType::kIpv4Prefix;
    v.announce = false;
    v.vrp = Vrp{net::Prefix::parse("10.0.0.0/8"), 24, net::Asn(64500)};
    pdus.push_back(v);
    Pdu e;
    e.type = PduType::kEndOfData;
    e.session_id = 7;
    e.serial = 42;
    pdus.push_back(e);
    Pdu err;
    err.type = PduType::kErrorReport;
    err.error_code = 3;
    err.error_text = "boom";
    pdus.push_back(err);
  }
  std::string wire;
  for (const Pdu& p : pdus) wire += serialize_pdu(p);
  std::vector<Pdu> parsed = parse_pdus(wire);
  ASSERT_EQ(parsed.size(), pdus.size());
  for (size_t i = 0; i < pdus.size(); ++i) {
    EXPECT_EQ(parsed[i].type, pdus[i].type) << i;
  }
  EXPECT_EQ(parsed[4].vrp.prefix.to_string(), "10.0.0.0/8");
  EXPECT_EQ(parsed[4].vrp.max_length, 24);
  EXPECT_FALSE(parsed[4].announce);
  EXPECT_EQ(parsed[6].error_text, "boom");
}

TEST(Rtr, ParserRejectsGarbage) {
  EXPECT_THROW(parse_pdus("\x02\x00"), ParseError);  // bad version
  std::string bad_len = serialize_pdu(Pdu{});
  bad_len[5] = 99;  // corrupt the length field (bytes 4..7, big-endian)
  EXPECT_THROW(parse_pdus(bad_len), ParseError);
  // Prefix PDU with max_length < prefix length.
  Pdu v;
  v.type = PduType::kIpv4Prefix;
  v.vrp = Vrp{net::Prefix::parse("10.0.0.0/24"), 24, net::Asn(1)};
  std::string wire = serialize_pdu(v);
  wire[10] = 8;  // maxlen byte (offset 10) -> 8 < plen 24
  EXPECT_THROW(parse_pdus(wire), ParseError);
}

TEST(Rtr, SerialLtIsRfc1982Comparison) {
  EXPECT_TRUE(serial_lt(5, 6));
  EXPECT_FALSE(serial_lt(6, 5));
  EXPECT_FALSE(serial_lt(7, 7));
  // Across the wraparound: 0xffffffff precedes 0, 0 precedes 1.
  EXPECT_TRUE(serial_lt(0xffffffffu, 0));
  EXPECT_FALSE(serial_lt(0, 0xffffffffu));
  EXPECT_TRUE(serial_lt(0xfffffff0u, 0x10));
  // Half the space forward is "greater"; past half it flips sign.
  EXPECT_TRUE(serial_lt(0, 0x7fffffffu));
  EXPECT_FALSE(serial_lt(0, 0x80000001u));
}

}  // namespace
}  // namespace droplens::rpki
