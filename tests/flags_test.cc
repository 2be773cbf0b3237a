// Flag-parser tests.
#include "util/flags.h"

#include <gtest/gtest.h>

namespace birch {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(const_cast<char*>(s.c_str()));
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, SpaceAndEqualsForms) {
  Flags f = ParseArgs({"--k", "10", "--metric=D3", "--verbose"});
  EXPECT_EQ(f.GetInt("k", 0).value(), 10);
  EXPECT_EQ(f.GetString("metric"), "D3");
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.Has("absent"));
  EXPECT_EQ(f.GetInt("absent", 7).value(), 7);
}

TEST(FlagsTest, TypedGetters) {
  Flags f = ParseArgs({"--x=2.5", "--flag=false", "--n=-3"});
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0).value(), 2.5);
  EXPECT_FALSE(f.GetBool("flag", true));
  EXPECT_EQ(f.GetInt("n", 0).value(), -3);
}

TEST(FlagsTest, PositionalArguments) {
  Flags f = ParseArgs({"input.csv", "--k", "3", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(FlagsTest, BoolFlagFollowedByFlag) {
  Flags f = ParseArgs({"--verbose", "--k", "5"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_EQ(f.GetInt("k", 0).value(), 5);
}

TEST(FlagsTest, TrailingCharactersAreRejected) {
  Flags f = ParseArgs({"--a=8O", "--b=2x", "--c=five", "--d=abc", "--e=1.5s",
                       "--f=0x10", "--g= 5", "--h=3.0"});
  for (const char* name : {"a", "b", "c", "f", "g", "h"}) {
    auto v = f.GetInt(name, 0);
    ASSERT_FALSE(v.ok()) << name;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(f.GetInt("a", 0).status().message(),
            "--a: not an integer: '8O'");
  for (const char* name : {"d", "e", "g"}) {
    auto v = f.GetDouble(name, 0.0);
    ASSERT_FALSE(v.ok()) << name;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(f.GetDouble("d", 0.0).status().message(),
            "--d: not a number: 'abc'");
  // Whole-string numbers still parse, hex included for doubles.
  EXPECT_DOUBLE_EQ(f.GetDouble("h", 0.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(f.GetDouble("f", 0.0).value(), 16.0);
}

TEST(FlagsTest, EmptyValuesAreRejected) {
  Flags f = ParseArgs({"--k=", "--t="});
  EXPECT_EQ(f.GetInt("k", 3).status().message(), "--k: not an integer: ''");
  EXPECT_EQ(f.GetDouble("t", 1.0).status().message(),
            "--t: not a number: ''");
  // A numeric flag given as a bare switch reads the value "true".
  Flags bare = ParseArgs({"--k", "--t", "2"});
  EXPECT_EQ(bare.GetInt("k", 3).status().message(),
            "--k: not an integer: 'true'");
}

TEST(FlagsTest, OutOfRangeValuesAreRejected) {
  Flags f = ParseArgs({"--big=99999999999999999999", "--n=-1", "--k=11",
                       "--huge=1e999", "--nan=nan", "--inf=-inf"});
  EXPECT_EQ(f.GetInt("big", 0).status().message(),
            "--big: out of range: '99999999999999999999'");
  EXPECT_EQ(f.GetInt("n", 0, 0, 10).status().message(),
            "--n must be >= 0, got -1");
  EXPECT_EQ(f.GetInt("k", 0, 0, 10).status().message(),
            "--k must be <= 10, got 11");
  EXPECT_EQ(f.GetInt("k", 0, 0, 11).value(), 11);
  EXPECT_EQ(f.GetInt("n", 0, -1, 10).value(), -1);
  for (const char* name : {"huge", "nan", "inf"}) {
    auto v = f.GetDouble(name, 0.0);
    ASSERT_FALSE(v.ok()) << name;
    EXPECT_NE(v.status().message().find("not a finite number"),
              std::string::npos)
        << v.status().message();
  }
  // The fallback of an absent flag is returned unchecked.
  EXPECT_EQ(f.GetInt("absent", 42, 0, 10).value(), 42);
}

TEST(FlagsTest, CheckKnownCatchesTypos) {
  Flags f = ParseArgs({"--kk=3"});
  EXPECT_FALSE(f.CheckKnown({"k"}).ok());
  EXPECT_TRUE(f.CheckKnown({"kk"}).ok());
}

}  // namespace
}  // namespace birch
