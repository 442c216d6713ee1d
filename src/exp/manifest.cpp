#include "exp/manifest.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "exp/registry.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace wlan::exp {

namespace {

/// Deterministic cell formatting: %.10g keeps full working precision so a
/// reproduced run can be checked against its manifest row exactly.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

RunRecord make_record(const RunSpec& run,
                      const core::AnalysisResult& analysis,
                      const core::UnrecordedTotals& unrecorded,
                      const workload::CellResult& result, double wall_ms) {
  const workload::CellConfig& cell = run.cell;
  RunRecord r;
  r.run_index = run.run_index;
  r.point_index = run.point_index;
  r.seed = cell.seed;
  r.scenario = run.scenario;
  r.rate_policy = cell.rate.policy;
  r.timing = timing_key(cell.timing);
  r.rtscts_fraction = cell.rtscts_fraction;
  r.power_margin_db = cell.auto_power_margin_db;
  r.churn_rate = run.churn_rate;
  r.users = cell.num_users;
  r.pps = cell.per_user_pps;
  r.far_fraction = cell.far_fraction;
  r.window = cell.profile.window;
  r.duration_s = cell.duration_s;
  r.wall_ms = wall_ms;

  r.seconds = analysis.seconds.size();
  r.frames = analysis.total_frames;
  r.data = analysis.total_data;
  r.acks = analysis.total_acks;
  r.rts = analysis.total_rts;
  r.cts = analysis.total_cts;

  core::SecondStats totals;
  util::Accumulator util_pct, thr, good;
  std::array<util::Accumulator, phy::kNumRates> busy;
  for (const core::SecondStats& s : analysis.seconds) {
    totals.merge(s);
    util_pct.add(s.utilization());
    thr.add(s.throughput_mbps());
    good.add(s.goodput_mbps());
    for (std::size_t i = 0; i < phy::kNumRates; ++i) {
      busy[i].add(s.cbt_us_by_rate[i] / 1e6);
    }
  }
  for (std::uint32_t n : totals.retries_by_rate) r.retries += n;
  r.mean_util_pct = util_pct.mean();
  r.mean_throughput_mbps = thr.mean();
  r.mean_goodput_mbps = good.mean();
  for (std::size_t i = 0; i < phy::kNumRates; ++i) {
    r.busy_s_by_rate[i] = busy[i].mean();
  }

  for (const auto& [addr, st] : analysis.senders) {
    r.data_tx += st.data_tx;
    r.data_acked += st.data_acked;
  }

  r.collision_pct =
      result.medium_transmissions
          ? 100.0 * static_cast<double>(result.medium_collisions) /
                static_cast<double>(result.medium_transmissions)
          : 0.0;
  const sim::SnifferStats& sniffer = result.sniffer;
  r.true_miss_pct =
      sniffer.offered
          ? 100.0 * static_cast<double>(sniffer.offered - sniffer.captured) /
                static_cast<double>(sniffer.offered)
          : 0.0;
  r.est_unrecorded_pct = unrecorded.unrecorded_pct();
  r.est_missed_data = unrecorded.missed_data;
  r.est_missed_rts = unrecorded.missed_rts;
  r.est_missed_cts = unrecorded.missed_cts;
  return r;
}

std::vector<std::string> manifest_header(bool with_wall) {
  std::vector<std::string> h = {
      "run",         "point",          "seed",
      "scenario",    "rate_policy",    "timing",
      "rtscts",      "power_margin_db", "churn",
      "users",       "pps",            "far",
      "window",
      "duration_s",  "seconds",        "frames",
      "data",        "acks",           "rts",
      "cts",         "retries",        "data_tx",
      "data_acked",  "util_pct",       "throughput_mbps",
      "goodput_mbps", "busy_1m_s",     "busy_2m_s",
      "busy_5m5_s",  "busy_11m_s",     "collision_pct",
      "true_miss_pct", "est_unrecorded_pct", "est_missed_data",
      "est_missed_rts", "est_missed_cts", "delivery_pct"};
  if (with_wall) h.push_back("wall_ms");
  return h;
}

std::vector<std::string> manifest_row(const RunRecord& r, bool with_wall) {
  std::vector<std::string> row = {
      num(r.run_index), num(r.point_index), num(r.seed),
      r.scenario, r.rate_policy, r.timing,
      num(r.rtscts_fraction), num(r.power_margin_db), num(r.churn_rate),
      std::to_string(r.users), num(r.pps), num(r.far_fraction),
      std::to_string(r.window),
      num(r.duration_s), num(r.seconds), num(r.frames),
      num(r.data), num(r.acks), num(r.rts),
      num(r.cts), num(r.retries), num(r.data_tx),
      num(r.data_acked), num(r.mean_util_pct), num(r.mean_throughput_mbps),
      num(r.mean_goodput_mbps), num(r.busy_s_by_rate[0]), num(r.busy_s_by_rate[1]),
      num(r.busy_s_by_rate[2]), num(r.busy_s_by_rate[3]), num(r.collision_pct),
      num(r.true_miss_pct), num(r.est_unrecorded_pct), num(r.est_missed_data),
      num(r.est_missed_rts), num(r.est_missed_cts), num(r.delivery_pct())};
  if (with_wall) row.push_back(num(r.wall_ms));
  return row;
}

void write_manifest_csv(const std::string& path,
                        const std::vector<RunRecord>& runs, bool with_wall) {
  util::CsvWriter csv(path, manifest_header(with_wall));
  for (const RunRecord& r : runs) csv.row_strings(manifest_row(r, with_wall));
}

void write_manifest_json(const std::string& path,
                         const std::vector<RunRecord>& runs, bool with_wall) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot create " + path);
  const auto header = manifest_header(with_wall);
  out << "[\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto row = manifest_row(runs[i], with_wall);
    out << "  {";
    for (std::size_t c = 0; c < header.size(); ++c) {
      // Keys/values are identifier-like or numeric (see manifest_row); no
      // JSON string escaping is needed for content this module produces.
      const bool quoted = c == 3 || c == 4 || c == 5;  // scenario/policy/timing
      out << (c ? ", " : "") << '"' << header[c] << "\": ";
      if (quoted) out << '"' << row[c] << '"';
      else out << row[c];
    }
    out << (i + 1 < runs.size() ? "},\n" : "}\n");
  }
  out << "]\n";
}

std::vector<PointSummary> summarize_by_point(
    const std::vector<RunRecord>& runs) {
  std::vector<PointSummary> points;
  for (const RunRecord& r : runs) {
    if (points.empty() || points.back().point_index != r.point_index) {
      PointSummary p;
      p.point_index = r.point_index;
      p.rep = r;
      points.push_back(std::move(p));
    }
    PointSummary& p = points.back();
    ++p.runs;
    p.seconds += r.seconds;
    p.frames += r.frames;
    p.rts += r.rts;
    p.cts += r.cts;
    p.retries += r.retries;
    p.data += r.data;
    p.data_tx += r.data_tx;
    p.data_acked += r.data_acked;
    const auto w = static_cast<double>(r.seconds);
    p.mean_util_pct += w * r.mean_util_pct;
    p.mean_throughput_mbps += w * r.mean_throughput_mbps;
    p.mean_goodput_mbps += w * r.mean_goodput_mbps;
    for (std::size_t i = 0; i < phy::kNumRates; ++i) {
      p.busy_s_by_rate[i] += w * r.busy_s_by_rate[i];
    }
    p.collision_pct += r.collision_pct;
    p.true_miss_pct += r.true_miss_pct;
    p.est_unrecorded_pct += r.est_unrecorded_pct;
    p.est_missed_data += static_cast<double>(r.est_missed_data);
    p.est_missed_rts += static_cast<double>(r.est_missed_rts);
    p.est_missed_cts += static_cast<double>(r.est_missed_cts);
  }
  for (PointSummary& p : points) {
    if (p.seconds) {
      const auto w = static_cast<double>(p.seconds);
      p.mean_util_pct /= w;
      p.mean_throughput_mbps /= w;
      p.mean_goodput_mbps /= w;
      for (double& b : p.busy_s_by_rate) b /= w;
    }
    if (p.runs) {
      const auto n = static_cast<double>(p.runs);
      p.collision_pct /= n;
      p.true_miss_pct /= n;
      p.est_unrecorded_pct /= n;
      p.est_missed_data /= n;
      p.est_missed_rts /= n;
      p.est_missed_cts /= n;
    }
  }
  return points;
}

}  // namespace wlan::exp
