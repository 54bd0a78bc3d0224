#include "util/types.h"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "util/format.h"

namespace delta {
namespace {

TEST(BytesTest, ArithmeticAndComparison) {
  const Bytes a{100};
  const Bytes b{28};
  EXPECT_EQ((a + b).count(), 128);
  EXPECT_EQ((a - b).count(), 72);
  EXPECT_EQ((b * 4).count(), 112);
  EXPECT_LT(b, a);
  EXPECT_GE(a, b);
  Bytes c;
  c += a;
  c -= b;
  EXPECT_EQ(c.count(), 72);
}

TEST(BytesTest, Literals) {
  EXPECT_EQ((1_KiB).count(), 1024);
  EXPECT_EQ((2_MiB).count(), 2 * 1024 * 1024);
  EXPECT_EQ((3_GiB).count(), 3LL * 1024 * 1024 * 1024);
  EXPECT_EQ((7_B).count(), 7);
}

TEST(BytesTest, UnitConversions) {
  EXPECT_DOUBLE_EQ((1_GiB).gib(), 1.0);
  EXPECT_DOUBLE_EQ((512_MiB).gib(), 0.5);
  EXPECT_DOUBLE_EQ((3_MiB).mib(), 3.0);
}

TEST(BytesTest, StreamFormatting) {
  std::ostringstream os;
  os << Bytes{2'500'000'000};
  EXPECT_EQ(os.str(), "2.5 GB");
}

TEST(IdTest, DefaultIsInvalid) {
  ObjectId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ObjectId::invalid());
}

TEST(IdTest, DistinctTagTypesAreDistinctTypes) {
  static_assert(!std::is_same_v<ObjectId, QueryId>);
  static_assert(!std::is_same_v<QueryId, UpdateId>);
}

TEST(IdTest, OrderingAndHashing) {
  ObjectId a{1};
  ObjectId b{2};
  EXPECT_LT(a, b);
  std::unordered_set<ObjectId> set{a, b, ObjectId{1}};
  EXPECT_EQ(set.size(), 2u);
}

TEST(FormatTest, HumanBytesScales) {
  using util::human_bytes;
  EXPECT_EQ(human_bytes(Bytes{17}), "17 B");
  EXPECT_EQ(human_bytes(Bytes{1'500}), "1.5 KB");
  EXPECT_EQ(human_bytes(Bytes{1'500'000}), "1.5 MB");
  EXPECT_EQ(human_bytes(Bytes{1'200'000'000'000}), "1.2 TB");
}

TEST(FormatTest, GbFixed) {
  EXPECT_EQ(util::gb_fixed(Bytes{12'340'000'000}), "12.34");
  EXPECT_EQ(util::gb_fixed(Bytes{500'000'000}, 1), "0.5");
}

TEST(FormatTest, CompareToReadsRightInBothDirections) {
  using util::compare_to;
  EXPECT_EQ(compare_to(Bytes{400}, Bytes{1'000}), "2.50x less");
  EXPECT_EQ(compare_to(Bytes{1'040}, Bytes{1'000}), "1.04x more");
  EXPECT_EQ(compare_to(Bytes{1'000}, Bytes{1'000}), "the same");
  EXPECT_EQ(compare_to(Bytes{0}, Bytes{1'000}), "no");
  EXPECT_EQ(compare_to(Bytes{5}, Bytes{0}), "more");
}

TEST(FormatTest, TablePrinterAlignsColumns) {
  util::TablePrinter t({"policy", "GB"});
  t.add_row({"NoCache", "300.00"});
  t.add_row({"VCover", "150.00"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("|  policy |"), std::string::npos);  // right-aligned
  EXPECT_NE(out.find("| NoCache |"), std::string::npos);
  EXPECT_NE(out.find("|  VCover |"), std::string::npos);
}

}  // namespace
}  // namespace delta
