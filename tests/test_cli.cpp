// CLI option parsing and command dispatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cli/commands.h"
#include "cli/options.h"

namespace hplmxp::cli {
namespace {

TEST(Options, ParsesEqualsAndSpaceForms) {
  const Options o = Options::parseArgs(
      {"--n=256", "--b", "32", "--flag", "--name", "ring2m"});
  EXPECT_EQ(o.getInt("n", 0), 256);
  EXPECT_EQ(o.getInt("b", 0), 32);
  EXPECT_TRUE(o.getBool("flag", false));
  EXPECT_EQ(o.getString("name", ""), "ring2m");
}

TEST(Options, FlagFollowedByOptionIsBareFlag) {
  const Options o = Options::parseArgs({"--trace", "--n=5"});
  EXPECT_TRUE(o.getBool("trace", false));
  EXPECT_EQ(o.getInt("n", 0), 5);
}

TEST(Options, EmptyValueIsBoolTrueButInvalidInt) {
  const Options o = Options::parseArgs({"--trace"});
  EXPECT_TRUE(o.getBool("trace", false));
  EXPECT_THROW((void)o.getInt("trace", 0), CheckError);
}

TEST(Options, PositionalArgumentsCollected) {
  const Options o = Options::parseArgs({"first", "--k=1", "second"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "first");
  EXPECT_EQ(o.positional()[1], "second");
}

TEST(Options, TypedGettersValidate) {
  const Options o = Options::parseArgs({"--x=abc", "--y=1.5", "--z=true"});
  EXPECT_THROW((void)o.getInt("x", 0), CheckError);
  EXPECT_DOUBLE_EQ(o.getDouble("y", 0.0), 1.5);
  EXPECT_TRUE(o.getBool("z", false));
  EXPECT_THROW((void)o.getBool("y", false), CheckError);
  // Fallbacks for absent keys.
  EXPECT_EQ(o.getInt("missing", 7), 7);
  EXPECT_EQ(o.getString("missing", "d"), "d");
}

TEST(Options, ConfigFileLayering) {
  const std::string path = "/tmp/hplmxp_test_config.txt";
  {
    std::ofstream f(path);
    f << "# comment line\n"
      << "n 1024\n"
      << "bcast ring1m   # trailing comment\n"
      << "\n"
      << "b 128\n";
  }
  Options file = Options::parseFile(path);
  EXPECT_EQ(file.getInt("n", 0), 1024);
  EXPECT_EQ(file.getString("bcast", ""), "ring1m");
  // Command line overrides the file.
  Options cmd = Options::parseArgs({"--n=256"});
  file.merge(cmd);
  EXPECT_EQ(file.getInt("n", 0), 256);
  EXPECT_EQ(file.getInt("b", 0), 128);
  std::remove(path.c_str());
}

TEST(Options, ConfigFileRejectsBadLines) {
  const std::string path = "/tmp/hplmxp_test_config_bad.txt";
  {
    std::ofstream f(path);
    f << "key value extra\n";
  }
  EXPECT_THROW(Options::parseFile(path), CheckError);
  std::remove(path.c_str());
  EXPECT_THROW(Options::parseFile("/nonexistent/file"), CheckError);
}

TEST(Options, UnusedKeyTracking) {
  const Options o = Options::parseArgs({"--used=1", "--typo=2"});
  (void)o.getInt("used", 0);
  const auto unused = o.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Options, MergeKeepsReadMarksOfTheOverlay) {
  // `hplmxp` reads --config on the command line, then overlays the
  // command line on the file it names: that read must survive the merge,
  // or --config is reported as an unused option.
  const Options cmd = Options::parseArgs({"--config=f.conf", "--n=256"});
  (void)cmd.getString("config", "");
  Options merged = Options::parseArgs({"--b=64"});
  merged.merge(cmd);
  (void)merged.getInt("n", 0);
  (void)merged.getInt("b", 0);
  EXPECT_TRUE(merged.unusedKeys().empty());
}

TEST(Dispatch, HelpAndUnknownCommands) {
  EXPECT_EQ(dispatch({"help"}), 0);
  EXPECT_EQ(dispatch({}), 1);
  EXPECT_EQ(dispatch({"frobnicate"}), 1);
  EXPECT_NE(usage().find("project"), std::string::npos);
}

TEST(Dispatch, RunCommandExecutesEndToEnd) {
  EXPECT_EQ(dispatch({"run", "--n=128", "--b=16", "--pr=2", "--pc=2"}), 0);
  EXPECT_EQ(dispatch({"run", "--n=128", "--b=16", "--pr=1", "--pc=1",
                      "--refiner=gmres"}),
            0);
}

TEST(Dispatch, HplCommandExecutesEndToEnd) {
  EXPECT_EQ(dispatch({"hpl", "--n=128", "--b=16", "--pr=2", "--pc=2",
                      "--diag-shift=0"}),
            0);
}

TEST(Dispatch, ProjectAndTuneAndSpecs) {
  EXPECT_EQ(dispatch({"project", "--machine=frontier", "--pr=32"}), 0);
  EXPECT_EQ(dispatch({"project", "--machine=summit", "--pr=54"}), 0);
  EXPECT_EQ(dispatch({"tune", "--machine=frontier"}), 0);
  EXPECT_EQ(dispatch({"specs"}), 0);
  EXPECT_EQ(dispatch({"scan", "--fleet=64", "--n=64", "--b=16"}), 0);
}

TEST(Dispatch, BadOptionValueReturnsError) {
  EXPECT_EQ(dispatch({"project", "--machine=cray1"}), 2);
  EXPECT_EQ(dispatch({"run", "--n=abc"}), 2);
}

}  // namespace
}  // namespace hplmxp::cli
