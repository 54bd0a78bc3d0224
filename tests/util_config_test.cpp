#include "util/config.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace delta::util {
namespace {

TEST(ConfigTest, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "cache_frac=0.3", "events=500000",
                        "policy=vcover"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_DOUBLE_EQ(cfg.get_double("cache_frac", 0.0), 0.3);
  EXPECT_EQ(cfg.get_int("events", 0), 500000);
  EXPECT_EQ(cfg.get_string("policy", ""), "vcover");
}

TEST(ConfigTest, FallbacksWhenMissing) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_FALSE(cfg.has("missing"));
}

TEST(ConfigTest, BoolParsing) {
  Config cfg;
  cfg.set("a", "true");
  cfg.set("b", "0");
  cfg.set("c", "yes");
  cfg.set("bad", "maybe");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_THROW((void)cfg.get_bool("bad", false), std::invalid_argument);
}

// A numeric value must parse in full: "4x" is not 4, and a value out of
// range is not clamped.
TEST(ConfigTest, NumbersWithTrailingCharactersAreRejected) {
  Config cfg;
  cfg.set("threads", "4x");
  cfg.set("frac", "0.3abc");
  cfg.set("empty", "");
  cfg.set("huge", "99999999999999999999");
  cfg.set("list", "10,2o");
  EXPECT_THROW((void)cfg.get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("frac", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_int("huge", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_int_list("list", {}), std::invalid_argument);
  cfg.set("threads", "-4");
  cfg.set("frac", "1e-3");
  EXPECT_EQ(cfg.get_int("threads", 0), -4);
  EXPECT_DOUBLE_EQ(cfg.get_double("frac", 0.0), 1e-3);
}

TEST(ConfigTest, IntListParsing) {
  Config cfg;
  cfg.set("objects", "10,20,68,91");
  const auto v = cfg.get_int_list("objects", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[3], 91);
  const auto fb = cfg.get_int_list("missing", {1, 2});
  ASSERT_EQ(fb.size(), 2u);
}

TEST(ConfigTest, RejectsMalformedToken) {
  const char* argv[] = {"prog", "novalue"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(ConfigTest, BadArgumentReportsExitStatusTwo) {
  EXPECT_EQ(report_bad_argument(std::invalid_argument("bad integer")), 2);
}

TEST(ConfigTest, LastSetWins) {
  Config cfg;
  cfg.set("k", "1");
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}

}  // namespace
}  // namespace delta::util
