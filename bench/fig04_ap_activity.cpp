// Figure 4: (a) frames sent/received by the 15 most active APs, (b) users
// associated over time (30-second means), (c) unrecorded-frame percentage
// per AP — for both the day and plenary sessions.
#include <cstdio>

#include "common.hpp"
#include "core/per_ap.hpp"
#include "core/unrecorded.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"

int main() {
  using namespace wlan;

  for (int plenary = 0; plenary <= 1; ++plenary) {
    workload::ScenarioConfig cfg;
    cfg.seed = 62 + plenary;
    cfg.duration_s = 90.0;
    cfg.scale = 0.2;
    cfg.profile.mean_pps *= plenary ? 6.0 : 3.0;
    cfg.profile.window = plenary ? 3 : 1;
    auto scenario = plenary ? workload::Scenario::plenary(cfg)
                            : workload::Scenario::day(cfg);
    std::printf("=== %s session (scale %.2f, %.0f s) ===\n",
                scenario.name().c_str(), cfg.scale, cfg.duration_s);
    scenario.run();
    const auto merged =
        trace::merge_sniffer_traces(scenario.network().sniffer_traces()).trace;

    // (a) per-AP activity ranking.
    const auto aps = core::ap_activity(merged);
    std::vector<std::string> labels;
    std::vector<double> values;
    std::uint64_t total = 0, top15 = 0;
    for (std::size_t i = 0; i < aps.size(); ++i) {
      total += aps[i].frames;
      if (i < 15) {
        top15 += aps[i].frames;
        labels.push_back("AP rank " + std::to_string(i + 1));
        values.push_back(static_cast<double>(aps[i].frames));
      }
    }
    std::fputs(util::bar_chart("Fig 4a: frames by the 15 most active APs",
                               labels, values)
                   .c_str(),
               stdout);
    std::printf("Top-15 APs carry %.1f%% of %llu frames "
                "(paper: 90.3%% day / 95.4%% plenary)\n\n",
                total ? 100.0 * top15 / total : 0.0,
                static_cast<unsigned long long>(total));

    // (b) associated users over 30 s windows.
    const auto users = core::user_count_series(merged);
    std::vector<double> xs, ys;
    for (const auto& p : users) {
      xs.push_back(p.time_s);
      ys.push_back(p.users);
    }
    std::fputs(util::line_chart("Fig 4b: associated users (30 s means)", xs,
                                {{"users", ys}}, 70, 12)
                   .c_str(),
               stdout);

    // (c) unrecorded percentage for the top-15 APs, on (a)'s rows.
    std::vector<double> uvalues;
    for (std::size_t i = 0; i < aps.size() && i < 15; ++i) {
      uvalues.push_back(aps[i].unrecorded_pct());
    }
    std::fputs(util::bar_chart("Fig 4c: unrecorded %% for the top-15 APs",
                               labels, uvalues)
                   .c_str(),
               stdout);
    std::printf("Overall unrecorded: %.1f%% "
                "(paper: 3-15%% day, 5-20%% plenary)\n\n",
                core::estimate_unrecorded(merged).totals.unrecorded_pct());
  }
  return 0;
}
