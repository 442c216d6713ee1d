// Scenario/controller registry: every registered name builds and runs a
// tiny configuration, and the axis name maps round-trip.
#include "exp/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "rate/policy_registry.hpp"

namespace wlan::exp {
namespace {

TEST(RegistryTest, BuiltInScenariosAreRegistered) {
  const auto names = ScenarioRegistry::instance().names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "cell");          // names() sorts
  EXPECT_EQ(names[1], "hidden-terminal");
  EXPECT_EQ(names[2], "ietf-day");
  EXPECT_EQ(names[3], "ietf-day-churn");
  EXPECT_EQ(names[4], "ietf-plenary");
  EXPECT_EQ(names[5], "ietf-plenary-churn");
  EXPECT_TRUE(ScenarioRegistry::instance().contains("cell"));
  EXPECT_FALSE(ScenarioRegistry::instance().contains("ballroom"));
}

/// FNV-1a over a manifest row's cells (comma-joined), as 16 hex digits.
std::string row_digest(const std::vector<std::string>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string cell = (i == 0 ? "" : ",") + cells[i];
    for (const char c : cell) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(RegistryTest, EveryRegisteredNameRunsATinyConfig) {
  // Pinned manifest rows (timing excluded): any change to a scenario's
  // setup, draw order, merge or reduction shows up here byte-for-byte.
  const std::map<std::string, std::string> expected = {
      {"cell", "e1d7c778d042062a"},
      {"hidden-terminal", "b9545f06a726ebec"},
      {"ietf-day", "26fa713d127dbfe1"},
      {"ietf-day-churn", "0cbbcef2c03b3e06"},
      {"ietf-plenary", "ec98bddfd91590b9"},
      {"ietf-plenary-churn", "4f21564f33bd51a9"},
  };
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    ExperimentSpec spec;
    spec.scenario = name;
    spec.base_seed = 7;
    spec.duration_s = 5.0;
    spec.loads = {{6, 10.0, 0.0, 1}};  // sessions read users as scale x100
    spec.base.warmup_s = 1.0;

    // Through the runner, so the digest covers its one reduction too.
    RunnerOptions opt;
    opt.threads = 1;
    const ExperimentResult result = run_experiment(spec, opt);
    ASSERT_EQ(result.runs.size(), 1u);
    const RunRecord& record = result.runs[0];
    EXPECT_GT(record.seconds, 0u) << name;
    EXPECT_GT(record.frames, 0u) << name;
    EXPECT_EQ(row_digest(manifest_row(record, false)), expected.at(name))
        << name;
  }
}

TEST(RegistryTest, UnknownScenarioAndDuplicateRegistrationThrow) {
  const auto runs = expand(ExperimentSpec{});
  EXPECT_THROW(ScenarioRegistry::instance().run("nope", runs[0]),
               std::invalid_argument);
  EXPECT_THROW(
      ScenarioRegistry::instance().add("cell", [](const RunSpec&) {
        return workload::CellResult{};
      }),
      std::invalid_argument);
}

TEST(RegistryTest, PolicyKeysRoundTripThroughSpecAndRegistry) {
  // The exp layer carries rate::PolicyRegistry keys verbatim: every key the
  // registry publishes expands into a run whose controller config and
  // manifest column echo the key back, and each builds the controller whose
  // name() matches the registry's display name.
  for (const std::string& key : rate::PolicyRegistry::instance().keys()) {
    ExperimentSpec spec;
    spec.rate_policies = {key};
    const auto runs = expand(spec);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].cell.rate.policy, key);
    const auto ctl =
        rate::PolicyRegistry::instance().make(runs[0].cell.rate, 1);
    // Display names refine the controller name ("FIXED" -> "FIXED-1").
    const std::string display(
        rate::PolicyRegistry::instance().display_name(key));
    EXPECT_EQ(display.rfind(ctl->name(), 0), 0u) << key;
  }
  ExperimentSpec bad;
  bad.rate_policies = {"carrier-pigeon"};
  EXPECT_THROW((void)expand(bad), std::invalid_argument);
}

TEST(RegistryTest, TimingKeysRoundTrip) {
  for (const std::string& key : timing_keys()) {
    EXPECT_EQ(timing_key(parse_timing(key)), key);
  }
  EXPECT_THROW((void)parse_timing("relativistic"), std::invalid_argument);
}

}  // namespace
}  // namespace wlan::exp
