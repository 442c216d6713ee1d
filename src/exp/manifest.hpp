// Run manifests: one row per grid run — grid point, derived seed, wall
// time, and the run's key metrics — written as CSV and JSON next to the
// figure output.  A manifest row plus the spec is enough to reproduce any
// single run bit-exactly (`--only <run>` replays just that grid index).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/unrecorded.hpp"
#include "exp/spec.hpp"
#include "phy/rate.hpp"

namespace wlan::exp {

/// One manifest row.  Everything except wall_ms is a deterministic
/// function of the spec; manifests written with timing excluded are
/// byte-identical across thread counts and re-runs.
struct RunRecord {
  // --- grid coordinates --------------------------------------------------
  std::size_t run_index = 0;
  std::size_t point_index = 0;
  std::uint64_t seed = 0;
  std::string scenario;
  std::string rate_policy;
  std::string timing;
  double rtscts_fraction = 0.0;
  double power_margin_db = -1.0;
  double churn_rate = 0.0;  ///< population turnover per minute (churn axis)
  int users = 0;
  double pps = 0.0;
  double far_fraction = 0.0;
  std::uint32_t window = 1;
  double duration_s = 0.0;

  // --- outcome -----------------------------------------------------------
  double wall_ms = 0.0;  ///< nondeterministic; excluded from stable manifests

  std::size_t seconds = 0;  ///< one-second intervals analyzed
  std::uint64_t frames = 0;
  std::uint64_t data = 0;
  std::uint64_t acks = 0;
  std::uint64_t rts = 0;
  std::uint64_t cts = 0;
  std::uint64_t retries = 0;
  std::uint64_t data_tx = 0;     ///< data transmissions incl. retries
  std::uint64_t data_acked = 0;  ///< distinct data frames seen ACKed
  double mean_util_pct = 0.0;
  double mean_throughput_mbps = 0.0;
  double mean_goodput_mbps = 0.0;
  /// Mean busy seconds per second at each rate (Fig. 8's quantity).
  std::array<double, phy::kNumRates> busy_s_by_rate{};
  double collision_pct = 0.0;       ///< medium ground truth
  double true_miss_pct = 0.0;       ///< sniffer ground truth
  double est_unrecorded_pct = 0.0;  ///< §4.4 estimate on the capture
  std::uint64_t est_missed_data = 0;
  std::uint64_t est_missed_rts = 0;
  std::uint64_t est_missed_cts = 0;

  [[nodiscard]] double delivery_pct() const {
    return data_tx ? 100.0 * static_cast<double>(data_acked) /
                         static_cast<double>(data_tx)
                   : 0.0;
  }
  [[nodiscard]] double rts_per_s() const {
    return seconds ? static_cast<double>(rts) / static_cast<double>(seconds)
                   : 0.0;
  }
  [[nodiscard]] double cts_per_s() const {
    return seconds ? static_cast<double>(cts) / static_cast<double>(seconds)
                   : 0.0;
  }
  [[nodiscard]] double retry_pct() const {
    return data ? 100.0 * static_cast<double>(retries) /
                      static_cast<double>(data)
                : 0.0;
  }
};

/// Fills a record from a completed run: its capture analysis, the §4.4
/// unrecorded estimate on that capture, and the medium / sniffer ground
/// truth the scenario reported (zeros for sessions).  wall_ms is the
/// caller's clock.
[[nodiscard]] RunRecord make_record(const RunSpec& run,
                                    const core::AnalysisResult& analysis,
                                    const core::UnrecordedTotals& unrecorded,
                                    const workload::CellResult& result,
                                    double wall_ms);

/// Manifest column names; wall_ms is appended only when `with_wall`.
[[nodiscard]] std::vector<std::string> manifest_header(bool with_wall);
/// One row's cells, matching manifest_header's order.
[[nodiscard]] std::vector<std::string> manifest_row(const RunRecord& r,
                                                    bool with_wall);

void write_manifest_csv(const std::string& path,
                        const std::vector<RunRecord>& runs, bool with_wall);
void write_manifest_json(const std::string& path,
                         const std::vector<RunRecord>& runs, bool with_wall);

/// Seed-axis reduction of one grid point: per-second means weighted by each
/// run's analyzed seconds, counters summed.  What ablation tables print.
struct PointSummary {
  std::size_t point_index = 0;
  RunRecord rep;  ///< first run of the point (grid coordinates; seed/wall
                  ///< and per-run metrics are not meaningful here)
  std::size_t runs = 0;
  std::size_t seconds = 0;
  std::uint64_t frames = 0;  ///< all captured frames across the point's runs
  std::uint64_t rts = 0, cts = 0;
  std::uint64_t retries = 0, data = 0;
  std::uint64_t data_tx = 0, data_acked = 0;
  double mean_util_pct = 0.0;
  double mean_throughput_mbps = 0.0;
  double mean_goodput_mbps = 0.0;
  std::array<double, phy::kNumRates> busy_s_by_rate{};
  double collision_pct = 0.0;       ///< mean over runs
  double true_miss_pct = 0.0;       ///< mean over runs
  double est_unrecorded_pct = 0.0;  ///< mean over runs
  /// Per-run mean estimated miss counts (means, like the percentages above,
  /// so the columns of a table stay comparable at any --seeds).
  double est_missed_data = 0.0, est_missed_rts = 0.0, est_missed_cts = 0.0;

  [[nodiscard]] double delivery_pct() const {
    return data_tx ? 100.0 * static_cast<double>(data_acked) /
                         static_cast<double>(data_tx)
                   : 0.0;
  }
  [[nodiscard]] double rts_per_s() const {
    return seconds ? static_cast<double>(rts) / static_cast<double>(seconds)
                   : 0.0;
  }
  [[nodiscard]] double cts_per_s() const {
    return seconds ? static_cast<double>(cts) / static_cast<double>(seconds)
                   : 0.0;
  }
  [[nodiscard]] double retry_pct() const {
    return data ? 100.0 * static_cast<double>(retries) /
                      static_cast<double>(data)
                : 0.0;
  }
};

/// Collapses records (in run order) into per-point summaries, point order.
[[nodiscard]] std::vector<PointSummary> summarize_by_point(
    const std::vector<RunRecord>& runs);

}  // namespace wlan::exp
