// Shared CLI flags: numeric values must be whole, in-range, finite tokens.
// Every case only parses; nothing here starts a run.
#include "exp/args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace wlan::exp {
namespace {

/// parse_bench_args over `flags` (argv[0] is supplied).
BenchArgs parse(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "args_test");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  return parse_bench_args(static_cast<int>(argv.size()), argv.data(), "test");
}

TEST(ArgsTest, WellFormedNumbersParse) {
  const BenchArgs args = parse({"--threads", "2", "--shards", "3", "--seeds",
                                "4", "--duration", "2.5", "--only", "7"});
  EXPECT_EQ(args.threads, 2);
  EXPECT_EQ(args.shards, 3);
  EXPECT_EQ(args.seeds, 4);
  EXPECT_DOUBLE_EQ(args.duration_s, 2.5);
  ASSERT_TRUE(args.only_run.has_value());
  EXPECT_EQ(*args.only_run, 7u);
}

TEST(ArgsDeathTest, TrailingJunkIsRejected) {
  EXPECT_EXIT((void)parse({"--threads", "2x"}), testing::ExitedWithCode(2),
              "--threads wants a positive integer");
  EXPECT_EXIT((void)parse({"--seeds", "1.5"}), testing::ExitedWithCode(2),
              "--seeds wants a positive integer");
  EXPECT_EXIT((void)parse({"--duration", "4s"}), testing::ExitedWithCode(2),
              "--duration wants positive seconds");
}

TEST(ArgsDeathTest, NonFiniteValuesAreRejected) {
  EXPECT_EXIT((void)parse({"--duration", "nan"}), testing::ExitedWithCode(2),
              "--duration wants positive seconds");
  EXPECT_EXIT((void)parse({"--duration", "inf"}), testing::ExitedWithCode(2),
              "--duration wants positive seconds");
  EXPECT_EXIT((void)parse({"--churn", "0,nan"}), testing::ExitedWithCode(2),
              "--churn wants comma-separated numbers");
}

TEST(ArgsDeathTest, OutOfRangeIntegersAreRejected) {
  // Past long long (strtoll reports ERANGE) and past int.
  EXPECT_EXIT((void)parse({"--shards", "99999999999999999999"}),
              testing::ExitedWithCode(2), "--shards wants a positive integer");
  EXPECT_EXIT((void)parse({"--seeds", "4294967297"}),
              testing::ExitedWithCode(2), "--seeds wants a positive integer");
  EXPECT_EXIT((void)parse({"--threads", "0"}), testing::ExitedWithCode(2),
              "--threads wants a positive integer");
}

}  // namespace
}  // namespace wlan::exp
