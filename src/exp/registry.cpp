#include "exp/registry.hpp"

#include <stdexcept>
#include <utility>

#include "workload/floorplan.hpp"

namespace wlan::exp {

namespace {

/// IETF sessions.  The resolved cell's load maps onto the session knobs:
/// `num_users` is population scale ×100 (10 users ≙ scale 0.1),
/// `per_user_pps` the per-user mean packet rate, `profile.window` the
/// closed-loop window.  With `churn` true the session runs the
/// dynamic-population variant (Poisson arrivals, lognormal dwell, AP
/// roaming, stations torn down on departure): the spec's churn-rate axis
/// sets the population turnover per minute, and a non-positive axis value
/// falls back to one full turnover per minute.
workload::CellResult run_session_scenario(const RunSpec& run,
                                          workload::SessionKind kind,
                                          bool churn = false) {
  const workload::CellConfig& cell = run.cell;
  workload::ScenarioConfig cfg;
  static_cast<sim::EngineOptions&>(cfg) = cell;
  cfg.seed = cell.seed;
  cfg.duration_s = cell.duration_s;
  cfg.scale = cell.num_users / 100.0;
  cfg.profile = cell.profile;
  cfg.profile.mean_pps = cell.per_user_pps;
  cfg.rtscts_fraction = cell.rtscts_fraction;
  cfg.rate = cell.rate;
  cfg.timing = cell.timing;
  if (churn) {
    cfg.churn_turnover_per_min = run.churn_rate > 0.0 ? run.churn_rate : 1.0;
  }
  return workload::run_session(cfg, kind);
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
  // Single-cell fixture: the workhorse of the figure sweeps.
  add("cell", [](const RunSpec& run) { return workload::run_cell(run.cell); });
  // Two user wings on disjoint carrier-sense masks sharing one AP.
  add("hidden-terminal", [](const RunSpec& run) {
    return workload::run_hidden_terminal(run.cell);
  });
  add("ietf-day", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kDay);
  });
  add("ietf-plenary", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kPlenary);
  });
  add("ietf-day-churn", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kDay, true);
  });
  add("ietf-plenary-churn", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kPlenary, true);
  });
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(std::string name, ScenarioFn fn) {
  if (!factories_.emplace(std::move(name), std::move(fn)).second) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario name");
  }
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, fn] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

workload::CellResult ScenarioRegistry::run(const std::string& name,
                                          const RunSpec& run) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw std::invalid_argument("ScenarioRegistry: unknown scenario \"" +
                                name + "\"");
  }
  return it->second(run);
}

mac::TimingProfile parse_timing(std::string_view key) {
  if (key == "paper") return mac::TimingProfile::kPaper;
  if (key == "standard") return mac::TimingProfile::kStandard;
  throw std::invalid_argument("unknown timing profile \"" + std::string(key) +
                              "\" (known: paper standard)");
}

std::string_view timing_key(mac::TimingProfile profile) {
  return profile == mac::TimingProfile::kPaper ? "paper" : "standard";
}

std::vector<std::string> timing_keys() { return {"paper", "standard"}; }

}  // namespace wlan::exp
