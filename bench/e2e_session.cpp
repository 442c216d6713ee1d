// End-to-end engine benchmark: the canonical workloads whose wall-clock
// bounds every figure sweep, timed as whole pipelines (simulate -> capture ->
// merge -> analyze) and emitted as BENCH_e2e.json.
//
// Three workloads:
//   E2E_Fig06Sweep      — the frozen standard utilization sweep behind
//                         Figures 6-15 (45 runs on the experiment runner).
//   E2E_PlenarySession  — one IETF62 plenary session (workload::run_session)
//                         plus a full trace analysis, the paper's §4-§6
//                         pipeline in one call.
//   E2E_ChurnSession    — one IETF62 day session on the dynamic-population
//                         driver (Poisson arrivals, lognormal dwell, AP
//                         roaming, real station teardown + link-id
//                         recycling): the churn-heavy trajectory the PR 5
//                         subsystem exists for, guarded so the teardown
//                         path can never quietly regress into O(arrivals).
//
// The JSON mirrors google-benchmark's schema (benchmarks[].name/cpu_time/
// time_unit) so scripts/perf_guard.py guards it exactly like the micro
// baseline, including the BM_RngNext machine-speed calibration entry it
// normalizes by.  Each workload row additionally carries a "counters"
// object of deterministic work counters (see kGuardedCounters below) that
// perf_guard.py compares against the baseline with == — the noise-immune
// measurement channel on a container whose wall clock jitters ±30%.
// Refresh the committed baseline with:
//
//     ./build/bench_e2e_session --out bench/BENCH_e2e_baseline.json
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "exp/args.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace wlan;

/// The work counters each e2e row publishes into BENCH_e2e.json.  These are
/// deterministic functions of (seed, config) — byte-identical across
/// machines, thread counts and repeats — so scripts/perf_guard.py compares
/// them with `==` (its exact-match counter mode) instead of a noise
/// threshold: any drift names the counter and fails the run.
constexpr obs::Id kGuardedCounters[] = {
    obs::Id::kEventsExecuted,        obs::Id::kTransmissions,
    obs::Id::kDeliveryChanceDraws,   obs::Id::kFrameSuccessEvals,
    obs::Id::kDbmToMwEvals,          obs::Id::kSnifferFramesCaptured,
    obs::Id::kStationsRemoved,       obs::Id::kLinkCacheStationMutations,
    obs::Id::kLinkCacheSnifferRegistrations,
};

struct Timing {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
};

template <class Fn>
Timing timed(Fn&& fn) {
  // wlan-lint: allow(wall-clock) — bench harness timing; never feeds sim
  const auto w0 = std::chrono::steady_clock::now();
  // wlan-lint: allow(wall-clock) — bench harness timing; never feeds sim
  const std::clock_t c0 = std::clock();
  fn();
  // wlan-lint: allow(wall-clock) — bench harness timing; never feeds sim
  const std::clock_t c1 = std::clock();
  // wlan-lint: allow(wall-clock) — bench harness timing; never feeds sim
  const auto w1 = std::chrono::steady_clock::now();
  Timing t;
  t.wall_ns = std::chrono::duration<double, std::nano>(w1 - w0).count();
  t.cpu_ns = 1e9 * static_cast<double>(c1 - c0) / CLOCKS_PER_SEC;
  return t;
}

struct Row {
  std::string name;
  std::int64_t iterations = 1;
  Timing t;
  double sim_seconds = 0.0;  ///< simulated network time covered
  std::int64_t records = 0;  ///< capture records through the pipeline
  obs::Metrics metrics;      ///< the workload's deterministic work counters
  bool has_counters = false; ///< emit a "counters" object for this row
};

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e2e_session: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"context\": {\n"
                  "    \"benchmark\": \"bench_e2e_session\",\n"
                  "    \"note\": \"end-to-end engine trajectory; cpu_time is "
                  "per-iteration ns, normalized by BM_RngNext in "
                  "scripts/perf_guard.py\"\n  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double per_iter_wall = r.t.wall_ns / static_cast<double>(r.iterations);
    const double per_iter_cpu = r.t.cpu_ns / static_cast<double>(r.iterations);
    // Engine-throughput figures of merit (0 for the calibration row): how
    // many simulated seconds one wall-clock second buys, and how many
    // capture records flow through the pipeline per wall-clock second.
    // perf_guard.py treats sim_* / *_per_second keys as higher-is-better.
    const double wall_s = per_iter_wall / 1e9;
    const double sim_rate = r.sim_seconds > 0.0 ? r.sim_seconds / wall_s : 0.0;
    const double rec_rate =
        r.records > 0 ? static_cast<double>(r.records) / wall_s : 0.0;
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"iterations\": %lld,\n"
                 "      \"real_time\": %.1f,\n"
                 "      \"cpu_time\": %.1f,\n"
                 "      \"time_unit\": \"ns\",\n"
                 "      \"sim_seconds\": %.3f,\n"
                 "      \"records\": %lld,\n"
                 "      \"sim_seconds_per_wall_second\": %.3f,\n"
                 "      \"records_per_second\": %.1f%s\n",
                 r.name.c_str(), static_cast<long long>(r.iterations),
                 per_iter_wall, per_iter_cpu, r.sim_seconds,
                 static_cast<long long>(r.records), sim_rate, rec_rate,
                 r.has_counters ? "," : "");
    if (r.has_counters) {
      // Deterministic work counters: perf_guard.py requires these to match
      // the baseline exactly (see kGuardedCounters).
      std::fprintf(f, "      \"counters\": {\n");
      const std::size_t n = std::size(kGuardedCounters);
      for (std::size_t c = 0; c < n; ++c) {
        const obs::Id id = kGuardedCounters[c];
        std::fprintf(f, "        \"%s\": %llu%s\n", obs::name(id),
                     static_cast<unsigned long long>(r.metrics.value(id)),
                     c + 1 < n ? "," : "");
      }
      std::fprintf(f, "      }\n");
    }
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "bench_e2e_session: end-to-end engine benchmark -> JSON\n\n"
               "  --out FILE             output JSON (default BENCH_e2e.json)\n"
               "  --threads N            runner threads for the sweep "
               "(default 1: stable wall-clock)\n"
               "  --sweep-duration S     per-run simulated seconds "
               "(default 18, the frozen sweep)\n"
               "  --plenary-duration S   plenary simulated seconds "
               "(default 60)\n"
               "  --churn-duration S     churn-session simulated seconds "
               "(default 60)\n"
               "  --scale F              plenary/churn population scale "
               "(default 1.0: the full 38-AP / 523-user venue)\n"
               "  --help                 this text\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e2e.json";
  int threads = 1;
  double sweep_duration = 18.0;
  double plenary_duration = 60.0;
  double churn_duration = 60.0;
  double scale = 1.0;

  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto number = [&]() {
      const char* flag = argv[i];
      const char* v = value();
      const std::optional<double> parsed = exp::parse_whole<double>(v);
      if (!parsed || !std::isfinite(*parsed)) {
        std::fprintf(stderr, "%s wants a number, got \"%s\"\n", flag, v);
        usage(2);
      }
      return *parsed;
    };
    if (std::strcmp(argv[i], "--help") == 0) usage(0);
    else if (std::strcmp(argv[i], "--out") == 0) out = value();
    else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = value();
      const std::optional<long long> parsed = exp::parse_whole<long long>(v);
      if (!parsed || *parsed < INT_MIN || *parsed > INT_MAX) {
        std::fprintf(stderr, "--threads wants an integer, got \"%s\"\n", v);
        usage(2);
      }
      threads = static_cast<int>(*parsed);
    } else if (std::strcmp(argv[i], "--sweep-duration") == 0)
      sweep_duration = number();
    else if (std::strcmp(argv[i], "--plenary-duration") == 0)
      plenary_duration = number();
    else if (std::strcmp(argv[i], "--churn-duration") == 0)
      churn_duration = number();
    else if (std::strcmp(argv[i], "--scale") == 0) scale = number();
    else usage(2);
  }

  std::vector<Row> rows;

  // Machine-speed calibration, same pure-ALU loop as micro_perf's BM_RngNext.
  {
    Row r;
    r.name = "BM_RngNext";
    r.iterations = 1 << 26;
    // wlan-lint: allow(rng-seed) — calibration stream; fixed by contract
    // so the normalized baseline comparison is stable across checkouts
    util::Rng rng(1);
    std::uint64_t acc = 0;
    r.t = timed([&] {
      for (std::int64_t k = 0; k < r.iterations; ++k) acc += rng.next();
    });
    // Defeat dead-code elimination; any bit of acc will do.
    if ((acc & 1) != 0) std::fputs("", stdout);
    rows.push_back(std::move(r));
  }

  // The frozen fig06/figures sweep on the experiment runner.
  {
    Row r;
    r.name = "E2E_Fig06Sweep";
    bench::SweepOptions opt;
    opt.duration_s = sweep_duration;
    auto spec = bench::standard_spec("e2e_fig06", opt);
    exp::RunnerOptions ropt;
    ropt.threads = threads;
    const std::size_t runs = exp::expand(spec).size();
    exp::ExperimentResult result;
    r.t = timed([&] { result = exp::run_experiment(spec, ropt); });
    r.sim_seconds = sweep_duration * static_cast<double>(runs);
    r.metrics = result.metrics;  // the runner's grid-order aggregate
    r.has_counters = WLAN_OBS_ENABLED != 0;
    for (const exp::RunRecord& run : result.runs) {
      r.records += static_cast<std::int64_t>(run.frames);
    }
    std::fprintf(stderr,
                 "E2E_Fig06Sweep: %zu runs, %.2f s wall, knee %.0f%%\n", runs,
                 r.t.wall_ns / 1e9, result.figures.knee_utilization());
    rows.push_back(std::move(r));
  }

  // One plenary session through the full capture-and-analyze pipeline.
  {
    Row r;
    r.name = "E2E_PlenarySession";
    workload::ScenarioConfig cfg;
    cfg.seed = 62;
    cfg.duration_s = plenary_duration;
    cfg.scale = scale;
    r.t = timed([&] {
      // The scope makes run_session deposit its work counters into
      // r.metrics (install + harvest are two pointer ops, not on any hot
      // path, so the timed region is unaffected).
      obs::MetricsScope scope(r.metrics);
      const auto session =
          workload::run_session(cfg, workload::SessionKind::kPlenary);
      const auto analysis = core::TraceAnalyzer{}.analyze(session.trace);
      core::FigureAccumulator acc;
      acc.add(analysis);
      r.records = static_cast<std::int64_t>(session.trace.records.size());
    });
    r.sim_seconds = plenary_duration;
    r.has_counters = WLAN_OBS_ENABLED != 0;
    std::fprintf(stderr,
                 "E2E_PlenarySession: %.2f s wall, %lld records "
                 "(%.1f sim-s/wall-s)\n",
                 r.t.wall_ns / 1e9, static_cast<long long>(r.records),
                 r.sim_seconds / (r.t.wall_ns / 1e9));
    rows.push_back(std::move(r));
  }

  // One day session under heavy churn/roaming: arrivals, dwell-outs, AP
  // hops, station teardown and link-id recycling all on the hot path.
  {
    Row r;
    r.name = "E2E_ChurnSession";
    workload::ScenarioConfig cfg;
    cfg.seed = 62;
    cfg.duration_s = churn_duration;
    cfg.scale = scale;
    cfg.churn_turnover_per_min = 2.0;  // mean dwell 30 s: brisk turnover
    r.t = timed([&] {
      obs::MetricsScope scope(r.metrics);
      const auto session =
          workload::run_session(cfg, workload::SessionKind::kDay);
      const auto analysis = core::TraceAnalyzer{}.analyze(session.trace);
      core::FigureAccumulator acc;
      acc.add(analysis);
      r.records = static_cast<std::int64_t>(session.trace.records.size());
    });
    r.sim_seconds = churn_duration;
    r.has_counters = WLAN_OBS_ENABLED != 0;
    std::fprintf(stderr,
                 "E2E_ChurnSession: %.2f s wall, %lld records "
                 "(%.1f sim-s/wall-s)\n",
                 r.t.wall_ns / 1e9, static_cast<long long>(r.records),
                 r.sim_seconds / (r.t.wall_ns / 1e9));
    rows.push_back(std::move(r));
  }

  write_json(out, rows);
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
