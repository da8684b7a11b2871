// Tests for harness::ArgParser, the shared CLI surface for tools/.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/argparse.h"

namespace l96 {
namespace {

using harness::ArgParser;
using harness::CommonCliArgs;

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ArgParseTest, FlagsOptionsAndPositionalsInterleave) {
  ArgParser p("demo", "demo tool");
  bool chaos = false;
  std::uint64_t count = 5;
  double rate = 1.0;
  std::string mode = "tcp";
  std::uint64_t conns = 8;
  p.add_flag("chaos", "enable chaos", &chaos);
  p.add_option("count", "N", "packet count", &count);
  p.add_option("rate", "X", "zipf exponent", &rate);
  p.add_positional("mode", "tcp|rpc", [&](const std::string& v) {
    if (v != "tcp" && v != "rpc") return false;
    mode = v;
    return true;
  });
  p.add_positional("conns", "connections", [&](const std::string& v) {
    conns = std::stoull(v);
    return true;
  });

  std::vector<std::string> args = {"demo", "rpc",    "--chaos", "--count",
                                   "42",   "--rate", "1.5",     "16"};
  auto argv = argv_of(args);
  std::ostringstream err;
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_TRUE(chaos);
  EXPECT_EQ(count, 42u);
  EXPECT_DOUBLE_EQ(rate, 1.5);
  EXPECT_EQ(mode, "rpc");
  EXPECT_EQ(conns, 16u);
  EXPECT_TRUE(err.str().empty());
}

TEST(ArgParseTest, DefaultsSurviveEmptyArgv) {
  ArgParser p("demo", "demo tool");
  std::uint64_t count = 7;
  p.add_option("count", "N", "count", &count);
  std::vector<std::string> args = {"demo"};
  auto argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(count, 7u);
}

TEST(ArgParseTest, UnknownFlagFailsWithUsage) {
  ArgParser p("demo", "demo tool");
  bool x = false;
  p.add_flag("x", "an x", &x);
  std::vector<std::string> args = {"demo", "--bogus"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_FALSE(p.help_shown());
  EXPECT_NE(err.str().find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(err.str().find("usage: demo"), std::string::npos);
}

TEST(ArgParseTest, MissingAndInvalidValuesFail) {
  std::uint64_t n = 0;
  {
    ArgParser p("demo", "demo tool");
    p.add_option("n", "N", "a number", &n);
    std::vector<std::string> args = {"demo", "--n"};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
    EXPECT_NE(err.str().find("needs a value"), std::string::npos);
  }
  {
    ArgParser p("demo", "demo tool");
    p.add_option("n", "N", "a number", &n);
    std::vector<std::string> args = {"demo", "--n", "12x"};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
    EXPECT_NE(err.str().find("invalid value '12x'"), std::string::npos);
  }
  {
    ArgParser p("demo", "demo tool");
    p.add_option("n", "N", "a number", &n);
    std::vector<std::string> args = {"demo", "--n", "-3"};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  }
  // Typed positionals parse as strictly as typed options.
  for (const auto& [count, skew, ok] :
       std::vector<std::tuple<std::string, std::string, bool>>{
           {"12", "1.5", true},
           {"12x", "1.5", false},
           {"-3", "1.5", false},
           {"12", "abc", false},
           {"12", "1.5x", false}}) {
    ArgParser p("demo", "demo tool");
    double s = 0;
    p.add_positional("count", "a number", &n);
    p.add_positional("skew", "a real", &s);
    std::vector<std::string> args = {"demo", count, skew};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_EQ(p.parse(static_cast<int>(argv.size()), argv.data(), err), ok)
        << count << " " << skew;
    if (ok) {
      EXPECT_EQ(n, 12u);
      EXPECT_EQ(s, 1.5);
    }
  }
}

TEST(ArgParseTest, ExcessPositionalFails) {
  ArgParser p("demo", "demo tool");
  std::vector<std::string> args = {"demo", "stray"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_NE(err.str().find("unexpected argument 'stray'"), std::string::npos);
}

TEST(ArgParseTest, RejectedPositionalNamesIt) {
  ArgParser p("demo", "demo tool");
  p.add_positional("mode", "tcp|rpc",
                   [](const std::string& v) { return v == "tcp"; });
  std::vector<std::string> args = {"demo", "udp"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_NE(err.str().find("for <mode>"), std::string::npos);
}

TEST(ArgParseTest, HelpListsEverythingAndSetsHelpShown) {
  ArgParser p("demo", "a demo tool for tests");
  bool chaos = false;
  std::uint64_t count = 0;
  p.add_flag("chaos", "enable chaos", &chaos);
  p.add_option("count", "N", "packet count", &count);
  p.add_positional("mode", "tcp|rpc", [](const std::string&) { return true; });
  const std::string h = p.help();
  EXPECT_NE(h.find("a demo tool for tests"), std::string::npos);
  EXPECT_NE(h.find("--chaos"), std::string::npos);
  EXPECT_NE(h.find("--count N"), std::string::npos);
  EXPECT_NE(h.find("mode"), std::string::npos);
  EXPECT_NE(h.find("--help"), std::string::npos);

  std::vector<std::string> args = {"demo", "--help"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_TRUE(p.help_shown());
  EXPECT_TRUE(err.str().empty());
}

TEST(ArgParseTest, CommonCliArgsRegisterUniformSurface) {
  ArgParser p("demo", "demo tool");
  CommonCliArgs common;
  common.add_to(p);
  std::vector<std::string> args = {"demo", "--workers", "3", "--json",
                                   "--out", "bench/out/x.json"};
  auto argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(common.workers, 3u);
  EXPECT_TRUE(common.json);
  EXPECT_EQ(common.out, "bench/out/x.json");
}

TEST(ArgParseTest, GivenNamesOnlyWhatTheCommandLineSet) {
  ArgParser p("demo", "demo tool");
  bool verbose = false;
  std::uint64_t n = 0;
  std::string mode, size;
  p.add_flag("verbose", "talk more", &verbose);
  p.add_option("n", "N", "a count", &n);
  p.add_option("unused", "X", "never given", &mode);
  p.add_positional("mode", "first positional", [&](const std::string& v) {
    mode = v;
    return true;
  });
  p.add_positional("size", "second positional", [&](const std::string& v) {
    size = v;
    return true;
  });
  std::vector<std::string> args = {"demo", "--n", "0", "fast", "--verbose"};
  auto argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  // Given at its default value still counts as given.
  EXPECT_TRUE(p.given("n"));
  EXPECT_TRUE(p.given("verbose"));
  EXPECT_TRUE(p.given("mode"));
  EXPECT_FALSE(p.given("size"));
  EXPECT_FALSE(p.given("unused"));
  EXPECT_FALSE(p.given("--n"));
}

}  // namespace
}  // namespace l96
