// String-keyed registries: scenarios runnable by name, and the name map
// for the timing-profile grid axis.  (The rate-policy axis needs no map
// here: spec strings are rate::PolicyRegistry keys, end to end.)
//
// The scenario registry is how benches and tools select what a RunSpec
// executes at runtime ("cell", "ietf-day", "ietf-plenary") and how new
// workloads plug into the experiment machinery without touching the runner:
// register a factory once and every spec, manifest and CLI flag picks it up.
//
// Registration is not thread-safe; register before run_experiment spawns
// workers (the runner touches instance() once up front, so the built-ins
// are always safely constructed).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/spec.hpp"
#include "mac/timing.hpp"
#include "workload/scenario.hpp"

namespace wlan::exp {

/// A scenario factory runs one resolved grid run and returns what it
/// produced: the capture plus whatever the simulator reports beside it.
/// The runner reduces it (analysis, unrecorded estimate, figures,
/// manifest row).
using ScenarioFn = std::function<workload::CellResult(const RunSpec&)>;

class ScenarioRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in scenarios.
  static ScenarioRegistry& instance();

  /// Registers a scenario; throws std::invalid_argument on a duplicate name.
  void add(std::string name, ScenarioFn fn);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;  ///< sorted

  /// Runs one resolved grid run; throws std::invalid_argument on an
  /// unknown scenario name.
  [[nodiscard]] workload::CellResult run(const std::string& name,
                                         const RunSpec& run) const;

 private:
  ScenarioRegistry();
  std::map<std::string, ScenarioFn> factories_;
};

// --- axis name maps --------------------------------------------------------
// Lower-case stable keys used on spec axes, CLI flags and manifest rows.
// Rate policies already live behind string keys (rate::PolicyRegistry);
// only the timing-profile enum still needs a map here.

[[nodiscard]] mac::TimingProfile parse_timing(std::string_view key);  ///< throws
[[nodiscard]] std::string_view timing_key(mac::TimingProfile profile);
[[nodiscard]] std::vector<std::string> timing_keys();

}  // namespace wlan::exp
