#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

namespace droplens::util {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  auto parts = split("abc", '|');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  auto parts = split("", '|');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

TEST(Strings, IContains) {
  EXPECT_TRUE(icontains("Snowshoe IP Block", "snowshoe"));
  EXPECT_TRUE(icontains("x", ""));
  EXPECT_FALSE(icontains("short", "longer than haystack"));
  EXPECT_FALSE(icontains("hijack", "hijacked"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("4294967295"), 4294967295u);
  EXPECT_THROW(parse_u64(""), ParseError);
  EXPECT_THROW(parse_u64("12x"), ParseError);
  EXPECT_THROW(parse_u64("-1"), ParseError);
  EXPECT_THROW(parse_u64("99999999999999999999999"), ParseError);
}

TEST(Strings, ParseNumberTakesOnlyWholeValuesInRange) {
  EXPECT_EQ(parse_number<uint16_t>("0"), 0u);
  EXPECT_EQ(parse_number<uint16_t>("65535"), 65535u);
  EXPECT_THROW(parse_number<uint16_t>("65536"), ParseError);
  EXPECT_THROW(parse_number<uint16_t>("banana"), ParseError);
  EXPECT_THROW(parse_number<uint16_t>(""), ParseError);
  EXPECT_THROW(parse_number<uint16_t>(" 1"), ParseError);
  EXPECT_THROW(parse_number<uint16_t>("+1"), ParseError);
  EXPECT_THROW(parse_number<uint16_t>("1x"), ParseError);
  EXPECT_THROW(parse_number<uint32_t>("-1"), ParseError);
  EXPECT_EQ(parse_number<uint32_t>("4294967295"), 4294967295u);
  EXPECT_THROW(parse_number<uint32_t>("4294967296"), ParseError);
  EXPECT_EQ(parse_number<int64_t>("-3", -5, 5), -3);
  EXPECT_THROW(parse_number<int64_t>("6", -5, 5), ParseError);
  EXPECT_THROW(parse_number<int64_t>("-6", -5, 5), ParseError);
  EXPECT_EQ(parse_number<uint64_t>("18446744073709551615"),
            18446744073709551615u);
  EXPECT_THROW(parse_number<uint64_t>("18446744073709551616"), ParseError);
  EXPECT_DOUBLE_EQ(parse_number<double>("0.5", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(parse_number<double>("50", 0.0), 50.0);
  EXPECT_THROW(parse_number<double>("-1", 0.0), ParseError);
  EXPECT_THROW(parse_number<double>("nan", 0.0), ParseError);
  EXPECT_THROW(parse_number<double>("inf", 0.0), ParseError);
  EXPECT_THROW(parse_number<double>("abc", 0.0), ParseError);
  try {
    parse_number<uint16_t>("70000");
    FAIL() << "70000 is not a port";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "not a number in [0, 65535]: '70000'");
  }
}

TEST(Csv, QuotesOnlyWhenNeeded) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(out.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, ValuesFormatsNumbers) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.values("x", 42, 7u);
  EXPECT_EQ(out.str(), "x,42,7\n");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"wide-cell", "x"});
  std::ostringstream out;
  t.print(out);
  std::string s = out.str();
  EXPECT_NE(s.find("a          long-header"), std::string::npos);
  EXPECT_NE(s.find("wide-cell"), std::string::npos);
}

TEST(TextTable, RejectsWideRow) {
  TextTable t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(TextTable, PadsMissingCells) {
  TextTable t({"a", "b"});
  t.add_row({"x"});
  std::ostringstream out;
  EXPECT_NO_THROW(t.print(out));
}

TEST(Formatting, FixedAndPercent) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(percent(1, 4), "25.0%");
  EXPECT_EQ(percent(1, 0), "n/a");
}

}  // namespace
}  // namespace droplens::util
