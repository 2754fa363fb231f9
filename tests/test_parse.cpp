#include "util/parse.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>

namespace cpsguard::util {
namespace {

TEST(ParseInt, AcceptsPlainIntegers) {
  EXPECT_EQ(try_parse_int("0"), 0);
  EXPECT_EQ(try_parse_int("-17"), -17);
  EXPECT_EQ(try_parse_int("  42 "), 42);
  EXPECT_EQ(try_parse_int("9223372036854775807"),
            std::numeric_limits<long long>::max());
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(try_parse_int(""));
  EXPECT_FALSE(try_parse_int("4x"));
  EXPECT_FALSE(try_parse_int("x4"));
  EXPECT_FALSE(try_parse_int("4 5"));
  EXPECT_FALSE(try_parse_int("0.5"));
  EXPECT_FALSE(try_parse_int("-"));
  EXPECT_FALSE(try_parse_int("9223372036854775808"));  // LLONG_MAX + 1
}

TEST(ParseU64, RejectsNegativeInsteadOfWrapping) {
  // std::stoull accepts "-5" and wraps to 18446744073709551611 — the exact
  // bug the checkpoint "bytes=" field had.
  EXPECT_FALSE(try_parse_u64("-5"));
  EXPECT_FALSE(try_parse_u64("+5"));
  EXPECT_EQ(try_parse_u64("5"), 5u);
  EXPECT_EQ(try_parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(try_parse_u64("18446744073709551616"));
  EXPECT_FALSE(try_parse_u64("22x"));
}

TEST(ParseDouble, AcceptsUsualForms) {
  EXPECT_DOUBLE_EQ(*try_parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*try_parse_double("-3.5e-2"), -0.035);
  EXPECT_DOUBLE_EQ(*try_parse_double("  1e2 "), 100.0);
  EXPECT_TRUE(std::isinf(*try_parse_double("inf")));
  EXPECT_TRUE(std::isinf(*try_parse_double("-Infinity")));
  EXPECT_TRUE(std::isnan(*try_parse_double("nan")));
}

TEST(ParseDouble, RejectsGarbageAndOverflow) {
  EXPECT_FALSE(try_parse_double(""));
  EXPECT_FALSE(try_parse_double("."));
  EXPECT_FALSE(try_parse_double("1.2.3"));
  EXPECT_FALSE(try_parse_double("0.5pt"));
  EXPECT_FALSE(try_parse_double("1e999"));  // a typo, not a request for inf
  EXPECT_FALSE(try_parse_double("--1"));
}

TEST(ParseDouble, IgnoresGlobalLocale) {
  // std::atof honors LC_NUMERIC: under a comma-decimal locale "0.5" parses
  // as 0. from_chars must not care. (Restore the locale even on failure.)
  const std::string prev = std::setlocale(LC_NUMERIC, nullptr);
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr &&
      std::setlocale(LC_NUMERIC, "de_DE") == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  const auto parsed = try_parse_double("0.5");
  std::setlocale(LC_NUMERIC, prev.c_str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(*parsed, 0.5);
}

TEST(ParseThrowing, MessageNamesContextAndText) {
  try {
    (void)parse_int("4x", "--threads");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4x"), std::string::npos) << msg;
  }
}

TEST(ParseInt32, RejectsBeyondIntRange) {
  EXPECT_EQ(parse_int32("2147483647", "k"), 2147483647);
  EXPECT_THROW(parse_int32("2147483648", "k"), ParseError);
  EXPECT_THROW(parse_int32("-2147483649", "k"), ParseError);
}

TEST(ParseBool, AcceptsExactlyTheSixSpellings) {
  for (const char* t : {"true", "1", "yes", " true ", "yes\n"}) {
    EXPECT_TRUE(parse_bool(t, "--flag")) << t;
  }
  for (const char* f : {"false", "0", "no", "\tno"}) {
    EXPECT_FALSE(parse_bool(f, "--flag")) << f;
  }
}

TEST(ParseBool, RejectsEverythingElseNamingFlagAndText) {
  for (const char* bad : {"ture", "", "2", "-1", "on", "off", "y", "n",
                          "True", "FALSE", "BENCH_x.json", "1x", "yes please"}) {
    EXPECT_THROW((void)parse_bool(bad, "--flag"), ParseError) << bad;
  }
  try {
    (void)parse_bool("ture", "--deterministic");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--deterministic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ture"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace cpsguard::util
