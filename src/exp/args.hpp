// Shared command-line flags for every bench/example that drives the
// experiment runner: --threads, --seeds, --duration, --out-dir, --only,
// --quiet.  One tiny parser so all drivers speak the same dialect.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace wlan::exp {

struct BenchArgs {
  int threads = 0;          ///< 0 = all hardware threads
  int shards = 0;           ///< 0 = keep the spec's base.shards
  int seeds = 0;            ///< 0 = keep the spec's default
  double duration_s = 0.0;  ///< 0 = keep the spec's default
  std::string out_dir = ".";
  std::optional<std::size_t> only_run;
  bool progress = true;     ///< per-run lines on stderr (--quiet disables)
  /// --churn values: population turnovers per minute for the churn-rate
  /// axis (empty = keep the spec's default single-value axis).
  std::vector<double> churn_rates;
  /// --rate-policies values: rate::PolicyRegistry keys for the
  /// rate-adaptation axis (empty = keep the spec's default; unknown keys
  /// are rejected when the spec expands).
  std::vector<std::string> rate_policies;
  /// --trace-out FILE: buffer obs::Span records during the sweep and dump
  /// them as Chrome trace-event JSON (Perfetto-viewable) at process exit.
  /// Empty = tracing stays disabled and costs nothing.
  std::string trace_out;
  /// Non-flag arguments in order (capture files for the analysis tools);
  /// only populated when the driver opts in via allow_positionals.
  std::vector<std::string> positionals;
};

/// Parses `v` as one whole number token (`T` is long long or double, the
/// two types args.cpp instantiates).  An empty token, trailing junk and
/// out-of-range values (ERANGE) yield nullopt instead of the silent zero or
/// truncation of atoi and atof.  "nan" and "inf" parse as doubles; callers
/// that need a finite value check for it.
template <typename T>
[[nodiscard]] std::optional<T> parse_whole(const char* v);

/// Parses the shared flags.  Prints usage (with `what` as the first line)
/// and exits 0 on --help; prints the offending flag and exits 2 on a
/// malformed or unknown argument.  Drivers that take input files
/// (wlan_analyze) pass allow_positionals so bare arguments collect into
/// BenchArgs::positionals instead of erroring.
[[nodiscard]] BenchArgs parse_bench_args(int argc, char** argv,
                                         std::string_view what,
                                         bool allow_positionals = false);

/// Folds the overriding flags (--seeds, --duration) into a spec.
void apply_args(const BenchArgs& args, ExperimentSpec& spec);

/// RunnerOptions matching the parsed flags.
[[nodiscard]] RunnerOptions runner_options(const BenchArgs& args);

}  // namespace wlan::exp
