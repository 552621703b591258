#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"

namespace dcn {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table table{{"name", "value"}};
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream out;
  table.Print(out, "demo");
  const std::string text = out.str();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
  EXPECT_EQ(table.RowCount(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table table{{"a", "b"}};
  EXPECT_THROW(table.AddRow({"only-one"}), InvalidArgument);
  EXPECT_THROW(Table{std::vector<std::string>{}}, InvalidArgument);
}

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(Table::Cell(std::int64_t{-7}), "-7");
  EXPECT_EQ(Table::Cell(std::uint64_t{12345}), "12345");
  EXPECT_EQ(Table::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Percent(0.1234, 1), "12.3%");
}

TEST(CliArgsTest, ParsesKeysFlagsAndTypes) {
  const char* argv[] = {"prog", "--n=8", "--ratio=0.25", "--verbose",
                        "--name=abccc", "--flag=false"};
  CliArgs args{6, argv};
  EXPECT_TRUE(args.Has("n"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetInt("n", 0), 8);
  EXPECT_EQ(args.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0), 0.25);
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_FALSE(args.GetBool("flag", true));
  EXPECT_EQ(args.GetString("name", ""), "abccc");
}

TEST(CliArgsTest, RejectsMalformedTokensAndValues) {
  const char* bad[] = {"prog", "positional"};
  EXPECT_THROW((CliArgs{2, bad}), InvalidArgument);

  const char* argv[] = {"prog", "--n=notanint", "--b=maybe"};
  CliArgs args{3, argv};
  EXPECT_THROW(args.GetInt("n", 0), InvalidArgument);
  EXPECT_THROW(args.GetBool("b", false), InvalidArgument);
}

TEST(CliArgsTest, NumbersMustBeWholeAndFinite) {
  const char* argv[] = {"prog",          "--threads=2x", "--rss=7oo",
                        "--empty=",      "--space= 4",   "--plus=+4",
                        "--huge=99999999999999999999",   "--inf=inf",
                        "--nan=nan",     "--overflow=1e999", "--ok=-12",
                        "--ratio=2.5e-1"};
  const CliArgs args{12, argv};
  for (const char* key : {"threads", "rss", "empty", "space", "plus", "huge"}) {
    EXPECT_THROW(args.GetInt(key, 0), InvalidArgument) << key;
  }
  for (const char* key :
       {"threads", "rss", "empty", "space", "plus", "inf", "nan", "overflow"}) {
    EXPECT_THROW(args.GetDouble(key, 0.0), InvalidArgument) << key;
  }
  EXPECT_EQ(args.GetInt("ok", 0), -12);
  EXPECT_DOUBLE_EQ(args.GetDouble("ok", 0.0), -12.0);
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0.0), 0.25);
  EXPECT_THROW(args.GetInt("ratio", 0), InvalidArgument);
  try {
    args.GetInt("threads", 0);
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("--threads"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("2x"), std::string::npos);
  }
}

TEST(CliArgsTest, KeyGivenTwiceIsRejected) {
  const char* twice[] = {"prog", "--threads=2", "--threads=4"};
  EXPECT_THROW((CliArgs{3, twice}), InvalidArgument);
  const char* flag_twice[] = {"prog", "--smoke", "--smoke"};
  EXPECT_THROW((CliArgs{3, flag_twice}), InvalidArgument);
  try {
    CliArgs{3, twice};
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("--threads"), std::string::npos);
  }
}

}  // namespace
}  // namespace dcn
