#include "common/format.h"

#include <gtest/gtest.h>

namespace exsample {
namespace common {
namespace {

TEST(FormatDurationTest, PaperTableStyles) {
  // Styles used in the paper's Table I.
  EXPECT_EQ(FormatDuration(18.0), "18s");
  EXPECT_EQ(FormatDuration(97.0), "1m37s");
  EXPECT_EQ(FormatDuration(60.0), "1m");
  EXPECT_EQ(FormatDuration(8 * 3600.0), "8h");
  EXPECT_EQ(FormatDuration(9 * 3600.0 + 50 * 60.0), "9h50m");
  EXPECT_EQ(FormatDuration(2 * 3600.0 + 58 * 60.0), "2h58m");
}

TEST(FormatDurationTest, SubSecond) {
  EXPECT_EQ(FormatDuration(0.44), "0.4s");
  EXPECT_EQ(FormatDuration(0.0), "0.0s");
  EXPECT_EQ(FormatDuration(-5.0), "0.0s");
}

TEST(FormatDurationTest, RoundsToWholeSeconds) {
  EXPECT_EQ(FormatDuration(59.6), "1m");
  EXPECT_EQ(FormatDuration(119.5), "2m");
}

TEST(FormatCountTest, ThousandsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(33546), "33,546");
  EXPECT_EQ(FormatCount(1234567890), "1,234,567,890");
}

TEST(FormatRatioTest, TwoSignificantDigits) {
  EXPECT_EQ(FormatRatio(1.9), "1.9x");
  EXPECT_EQ(FormatRatio(0.75), "0.75x");
  EXPECT_EQ(FormatRatio(84.0), "84x");
  EXPECT_EQ(FormatRatio(12.3), "12x");
}

TEST(ParseValueTest, TakesOnlyOneWholeNumber) {
  uint64_t count = 0;
  EXPECT_TRUE(ParseValue("4464", &count));
  EXPECT_EQ(count, 4464u);
  for (const char* bad : {"", "two", "-1", " 1", "+1", "1x", "99999999999999999999"}) {
    EXPECT_FALSE(ParseValue(bad, &count)) << "'" << bad << "'";
  }
  double scale = 0.0;
  EXPECT_TRUE(ParseValue("0.100000", &scale));
  EXPECT_EQ(scale, 0.1);
  EXPECT_TRUE(ParseValue("1e-3", &scale));
  EXPECT_EQ(scale, 1e-3);
  for (const char* bad : {"", "soon", "0.1s"}) {
    EXPECT_FALSE(ParseValue(bad, &scale)) << "'" << bad << "'";
  }
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table;
  table.SetHeader({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Each line has the value column starting at the same offset.
  const size_t name_line = out.find("a ");
  const size_t longer_line = out.find("longer");
  ASSERT_NE(name_line, std::string::npos);
  ASSERT_NE(longer_line, std::string::npos);
}

TEST(TextTableTest, RowCountExcludesSeparators) {
  TextTable table;
  table.AddRow({"a"});
  table.AddSeparator();
  table.AddRow({"b"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTableTest, HandlesRaggedRows) {
  TextTable table;
  table.SetHeader({"c1", "c2", "c3"});
  table.AddRow({"only-one"});
  table.AddRow({"a", "b", "c"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("only-one"), std::string::npos);
  EXPECT_NE(out.find("c3"), std::string::npos);
}

}  // namespace
}  // namespace common
}  // namespace exsample
