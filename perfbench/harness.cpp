// perfbench_harness: the repository benchmark's measuring process.
//
// Runs one workload repeatedly for a fixed host-time budget, drives every
// layer only through its public functions, and times those calls from the
// outside.  run.py builds this program, prepares inputs, and turns the JSON
// line printed here into the benchmark's result line.
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--prepare] [--shards N]
//
// Workloads (see perfbench/README.md for why each was chosen):
//   fig06_sweep      bench::standard_spec on exp::run_experiment, 3 threads
//   plenary_sharded  full-venue plenary session at --shards 3
//   day_churn        full-venue day session, churn turnover 2/min, 1 shard
//   capture_replay   three skewed-clock sniffer pcaps -> offsets -> merge ->
//                    streaming analysis (inputs made by --prepare)
//
// The first iteration is an untimed warm-up.  --trace 0 prints the
// end-to-end metrics, whose timings add up each segment's fast decile across
// iterations (see fast_total) and are scaled to a nominal host speed by a
// probe timed after each iteration (see HostProbe).  --trace 1 alternates
// traced and untraced iterations: traced ones keep a span per public call in memory
// (written at exit as Chrome trace JSON to DIR/trace_<workload>.json) and
// yield the per-layer metrics; the untraced ones give the tracing overhead.
//
// Every iteration's output is checked: it must reproduce the first
// iteration's fingerprint (figure digests, record counts, guarded counters),
// and capture_replay's streaming figures must equal the in-memory reference
// --prepare computed from the same pcaps.  run.py additionally compares the
// fingerprint with the values recorded for the default and held-out seeds.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "core/streaming.hpp"
#include "core/unrecorded.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace wlan;
namespace fs = std::filesystem;

// --- workload parameters ----------------------------------------------------

constexpr int kWorkerThreads = 3;  // one core of four left to the caller
constexpr double kSessionScale = 1.0;
constexpr double kPlenaryDuration = 120.0;
constexpr double kDayDuration = 60.0;
constexpr double kChurnTurnoverPerMin = 2.0;
constexpr int kReplaySniffers = 3;
constexpr std::size_t kReplayBlock = 4096;  // records per read/push block
constexpr Microseconds kSimSlice = sec(1);  // session sim segment length
constexpr int kMinIterations = 3;
/// Setup is timed this many times per iteration and only the last result is
/// kept; setup_s is the median over every repetition of the run.
constexpr int kSetupRepeats = 32;
constexpr double kPaperKneePct = 84.0;  // Jardosh et al. §5-§6

/// The deterministic work counters a session iteration must reproduce
/// (the exact-counter set bench_e2e_session guards).
constexpr obs::Id kGuardedCounters[] = {
    obs::Id::kEventsExecuted,        obs::Id::kTransmissions,
    obs::Id::kDeliveryChanceDraws,   obs::Id::kFrameSuccessEvals,
    obs::Id::kDbmToMwEvals,          obs::Id::kSnifferFramesCaptured,
    obs::Id::kStationsRemoved,       obs::Id::kLinkCacheStationMutations,
    obs::Id::kLinkCacheSnifferRegistrations,
};

// --- clocks -------------------------------------------------------------------

double wall_now_s() {
  // wlan-lint: allow(wall-clock) — benchmark timing; never feeds the sim
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

/// Process CPU seconds, every thread included (shard and runner workers).
double cpu_now_s() {
  timespec ts{};
  // wlan-lint: allow(wall-clock) — benchmark timing; never feeds the sim
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- spans ----------------------------------------------------------------------

/// In-memory span log for the calling thread.  Spans nest strictly (each is
/// an RAII scope around one public call), so a span's parent is whatever
/// was open when it began.  Disabled, a scope costs one branch.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int iteration = 0;
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(&log) {
      if (!log.enabled_) return;
      index_ = static_cast<int>(log.spans_.size());
      log.spans_.push_back({name, log.open_, log.iteration_, wall_now_s(), 0.0});
      log.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = log_->spans_[static_cast<std::size_t>(index_)];
      s.end_s = wall_now_s();
      log_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  void set_enabled(bool on, int iteration) {
    enabled_ = on;
    iteration_ = iteration;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, microseconds from the first span),
  /// loadable in Perfetto like obs::TraceLog's output.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().begin_s;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"iteration\":%d}}%s\n",
                   s.name.c_str(), 1e6 * (s.begin_s - t0),
                   1e6 * (s.end_s - s.begin_s), s.iteration,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int iteration_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Self time per span name for one iteration: each span's duration minus
/// the time its direct children cover.
std::map<std::string, double> self_times(const std::vector<SpanLog::Span>& spans,
                                         int iteration) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.iteration == iteration && s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.begin_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].iteration != iteration) continue;
    out[spans[i].name] += spans[i].end_s - spans[i].begin_s - child_s[i];
  }
  return out;
}

// --- digests ----------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Writes the paper's figure CSVs (Figs. 6-15) into `dir` and digests them.
std::string figure_digest(const core::FigureAccumulator& acc, const fs::path& dir) {
  fs::create_directories(dir);
  std::vector<std::pair<std::string, core::FigureSeries>> figs = {
      {"fig06.csv", acc.fig06_throughput_goodput()},
      {"fig07.csv", acc.fig07_rts_cts()},
      {"fig08.csv", acc.fig08_busytime_share()},
      {"fig09.csv", acc.fig09_bytes_per_rate()},
      {"fig10_13_S.csv", acc.fig10_11_frames_of_class(core::SizeClass::kS)},
      {"fig10_13_M.csv", acc.fig10_11_frames_of_class(core::SizeClass::kM)},
      {"fig10_13_L.csv", acc.fig10_11_frames_of_class(core::SizeClass::kL)},
      {"fig10_13_XL.csv", acc.fig10_11_frames_of_class(core::SizeClass::kXL)},
      {"fig14.csv", acc.fig14_first_attempt_acked()},
      {"fig15.csv", acc.fig15_acceptance_delay()},
  };
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [name, fig] : figs) {
    const std::string path = (dir / name).string();
    core::write_figure_csv(fig, path);
    h = fnv1a(name, h);
    h = fnv1a(read_file(path), h);
  }
  return hex(h);
}

// --- host speed probe -------------------------------------------------------------

/// A fixed task timed after every untraced iteration, outside its timed
/// section: it builds a std::map of 100 000 pseudo-random keys, which
/// allocates and chases pointers like the layers do.  On a shared host the
/// speed left to this process drifts by a third over minutes; the probe
/// drifts with it while no change to the repository can move it, so the
/// end-to-end timings are scaled by kProbeNominalS / probe time.
class HostProbe {
 public:
  HostProbe() {
    std::uint64_t x = 88172645463325252ULL;  // fixed xorshift64 stream
    keys_.resize(100000);
    for (auto& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x);
    }
  }
  double run() {
    const double t0 = wall_now_s();
    std::map<std::uint32_t, std::uint32_t> m;
    for (const std::uint32_t k : keys_) m[k] = k;
    const double t = wall_now_s() - t0;
    if (m.size() < keys_.size() / 2) throw std::runtime_error("probe map too small");
    return t;
  }

 private:
  std::vector<std::uint32_t> keys_;
};

/// The probe's fast-decile time on an uncontended 4-vCPU Xeon VM: the host
/// speed the scaled timings are expressed at.
constexpr double kProbeNominalS = 0.025;

// --- one iteration ----------------------------------------------------------------

/// What one iteration measured.  Times are host seconds.
struct Iteration {
  /// Workload start -> first simulated event / record read, per repetition.
  std::vector<double> setup_s;
  double wall_s = 0.0;      ///< the timed section after setup
  double cpu_s = 0.0;       ///< process CPU over the timed section
  /// The timed section cut into consecutive segments (slices of simulated
  /// time, pipeline stages, record blocks) that do the same work in every
  /// iteration of a run: wall and process-CPU seconds of each.
  std::vector<double> segment_wall_s, segment_cpu_s;
  double sim_seconds = 0.0; ///< simulated (or captured) seconds covered
  double records = 0.0;     ///< capture records through the pipeline
  double knee_pct = 0.0;
  double sim_run_s = 0.0;   ///< the simulate call alone
  double sim_run_cpu_s = 0.0;
  std::vector<double> run_ms;  ///< fig06: per-run RunRecord::wall_ms
  obs::Metrics metrics;
  trace::MergeStats merge;
  std::uint64_t sniffer_records = 0;  ///< pre-merge records across sniffers
  std::string fingerprint;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 62;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
  std::optional<int> shards;
  fs::path work_dir;
};

/// Records the timed section's segments: each mark() closes the segment
/// that began at the previous mark (or at construction).
class SegmentClock {
 public:
  explicit SegmentClock(Iteration& it)
      : it_(it), wall_(wall_now_s()), cpu_(cpu_now_s()) {}
  void mark() {
    const double wall = wall_now_s();
    const double cpu = cpu_now_s();
    it_.segment_wall_s.push_back(wall - wall_);
    it_.segment_cpu_s.push_back(cpu - cpu_);
    wall_ = wall;
    cpu_ = cpu;
  }

 private:
  Iteration& it_;
  double wall_;
  double cpu_;
};

/// Times one `build` call under a `name` span into it.setup_s.
template <class Build>
void time_setup(Iteration& it, SpanLog& log, const char* name, Build&& build) {
  SpanLog::Scope s(log, name);
  const double t0 = wall_now_s();
  build();
  it.setup_s.push_back(wall_now_s() - t0);
}

/// Times `build` kSetupRepeats - 1 times, calling `discard` untimed after
/// each; the caller then times the build it keeps with one more time_setup.
template <class Build, class Discard>
void time_discarded_setups(Iteration& it, SpanLog& log, const char* name,
                           Build&& build, Discard&& discard) {
  for (int k = 1; k < kSetupRepeats; ++k) {
    time_setup(it, log, name, build);
    discard();
  }
}

std::string counters_fingerprint(const obs::Metrics& m) {
  std::string s;
  for (const obs::Id id : kGuardedCounters) {
    s += ';';
    s += obs::name(id);
    s += '=';
    s += std::to_string(m.value(id));
  }
  return s;
}

Iteration run_fig06(const Options& opt, SpanLog& log) {
  Iteration it;
  exp::ExperimentSpec spec;
  const auto build = [&] {
    bench::SweepOptions sweep;
    sweep.base_seed = opt.seed;
    spec = bench::standard_spec("perfbench_fig06", sweep);
    if (exp::expand(spec).empty()) throw std::runtime_error("empty sweep");
  };
  time_discarded_setups(it, log, "exp.spec", build, [] {});
  time_setup(it, log, "exp.spec", build);
  const double t1 = wall_now_s();
  const double c1 = cpu_now_s();
  exp::RunnerOptions ropt;
  ropt.threads = kWorkerThreads;
  exp::ExperimentResult result;
  {
    SpanLog::Scope s(log, "exp.run_experiment");
    result = exp::run_experiment(spec, ropt);
  }
  {
    SpanLog::Scope s(log, "core.knee");
    it.knee_pct = result.figures.knee_utilization();
  }
  it.wall_s = wall_now_s() - t1;
  it.cpu_s = cpu_now_s() - c1;
  // The runner's workers interleave the 45 runs, so the sweep is one segment.
  it.segment_wall_s = {it.wall_s};
  it.segment_cpu_s = {it.cpu_s};
  it.sim_run_s = it.wall_s;
  it.sim_run_cpu_s = it.cpu_s;
  it.metrics = result.metrics;
  for (const exp::RunRecord& r : result.runs) {
    it.sim_seconds += r.duration_s;
    it.records += static_cast<double>(r.frames);
    it.run_ms.push_back(r.wall_ms);
  }
  char knee[32];
  std::snprintf(knee, sizeof knee, "%.3f", it.knee_pct);
  it.fingerprint = "runs=" + std::to_string(result.runs.size()) +
                   ";figures=" + figure_digest(result.figures, opt.work_dir / "fig06") +
                   ";knee=" + knee + counters_fingerprint(it.metrics);
  return it;
}

/// `whole` runs the simulated time in one Scenario::run call, as a user
/// would; otherwise it runs in slices (see below).
Iteration run_session(const Options& opt, SpanLog& log, bool plenary, bool whole) {
  workload::ScenarioConfig cfg;
  cfg.seed = opt.seed;
  cfg.scale = kSessionScale;
  cfg.duration_s = plenary ? kPlenaryDuration : kDayDuration;
  cfg.shards = opt.shards.value_or(plenary ? kWorkerThreads : 1);
  if (!plenary) cfg.churn_turnover_per_min = kChurnTurnoverPerMin;

  Iteration it;
  std::optional<workload::Scenario> scenario;
  const auto build = [&] {
    scenario.emplace(plenary ? workload::Scenario::plenary(cfg)
                             : workload::Scenario::day(cfg));
  };
  time_discarded_setups(it, log, "workload.build", build, [&] { scenario.reset(); });
  // Opened only for the kept build, so construction counters count once.
  obs::MetricsScope scope(it.metrics);
  time_setup(it, log, "workload.build", build);
  const double t1 = wall_now_s();
  const double c1 = cpu_now_s();
  SegmentClock segments(it);
  {
    SpanLog::Scope s(log, "sim.run");
    if (whole) {
      scenario->run();
      segments.mark();
    } else {
      // Scenario::run is network().run_for(duration); the same simulated
      // time runs here in one-second slices, each its own segment.  run_for
      // composes exactly, which the output check confirms against the
      // recorded single-call results.  Slices drain the ground-truth staging
      // sooner, so peak_rss_mb comes from the whole-call first iteration.
      sim::Network& net = scenario->network();
      const auto total_us = static_cast<std::int64_t>(cfg.duration_s * 1e6);
      for (std::int64_t done = 0; done < total_us; done += kSimSlice.count()) {
        net.run_for(Microseconds{std::min(kSimSlice.count(), total_us - done)});
        segments.mark();
      }
    }
  }
  it.sim_run_s = wall_now_s() - t1;
  it.sim_run_cpu_s = cpu_now_s() - c1;
  std::vector<trace::Trace> captures;
  {
    SpanLog::Scope s(log, "sim.capture");
    captures = scenario->network().sniffer_traces();
  }
  segments.mark();
  trace::MergeResult merged;
  {
    SpanLog::Scope s(log, "trace.merge");
    merged = trace::merge_sniffer_traces(captures);
  }
  segments.mark();
  core::AnalysisResult analysis;
  {
    SpanLog::Scope s(log, "core.analyze");
    analysis = core::TraceAnalyzer{}.analyze(merged.trace);
  }
  segments.mark();
  core::UnrecordedReport unrecorded;
  {
    SpanLog::Scope s(log, "core.unrecorded");
    unrecorded = core::estimate_unrecorded(merged.trace);
  }
  segments.mark();
  core::FigureAccumulator acc;
  {
    SpanLog::Scope s(log, "core.figures");
    acc.add(analysis);
    it.knee_pct = acc.knee_utilization();
  }
  segments.mark();
  it.wall_s = wall_now_s() - t1;
  it.cpu_s = cpu_now_s() - c1;

  // Counters the way workload::run_session deposits them: the network's
  // cumulative registers plus the churn process's lifecycle tallies.
  scenario->network().harvest_metrics(it.metrics);
  if (scenario->has_churn()) {
    const workload::ChurnProcess& c = scenario->churn();
    it.metrics.add(obs::Id::kChurnArrivals, c.arrivals());
    it.metrics.add(obs::Id::kChurnRoams, c.roams());
    it.metrics.add(obs::Id::kChurnMoves, c.moves());
    it.metrics.note_max(obs::Id::kChurnPeakLive, c.peak_live());
  }
  it.sim_seconds = cfg.duration_s;
  it.records = static_cast<double>(merged.trace.records.size());
  it.merge = merged.stats;
  for (const auto& t : captures) it.sniffer_records += t.records.size();
  it.fingerprint = "records=" + std::to_string(merged.trace.records.size()) +
                   ";missed_data=" + std::to_string(unrecorded.totals.missed_data) +
                   ";missed_rts=" + std::to_string(unrecorded.totals.missed_rts) +
                   counters_fingerprint(it.metrics);
  return it;
}

// --- capture_replay -----------------------------------------------------------------

/// The saturated three-sniffer cell whose captures capture_replay reads.
workload::CellConfig replay_cell(std::uint64_t seed) {
  workload::CellConfig cell;
  cell.seed = seed;
  // Many users at a low rate each, so the rate mix a seed draws averages
  // out: with 12 users at 60 pps the per-record replay cost differed by a
  // tenth between seeds.
  cell.num_users = 48;
  cell.per_user_pps = 15.0;
  cell.profile.closed_loop = true;
  cell.profile.window = 2;
  cell.duration_s = 60.0;
  cell.warmup_s = 1.0;
  cell.num_sniffers = kReplaySniffers;
  // No outer-ring users: how many slow far links a seed draws would swing
  // the capture's size by a quarter between seeds; without them it stays
  // within a few percent.
  cell.far_fraction = 0.0;
  return cell;
}

std::vector<std::string> replay_files(const fs::path& dir) {
  std::vector<std::string> files;
  for (int j = 0; j < kReplaySniffers; ++j) {
    files.push_back((dir / ("sniffer" + std::to_string(j) + ".pcap")).string());
  }
  return files;
}

std::string replay_fingerprint(const std::string& figures,
                               const core::AnalysisResult& r,
                               const trace::ClockOffsets& offsets,
                               const trace::MergeStats& stats) {
  std::string s = "figures=" + figures +
                  ";frames=" + std::to_string(r.total_frames) +
                  ";data=" + std::to_string(r.total_data) +
                  ";records_in=" + std::to_string(stats.records_in) +
                  ";duplicates=" + std::to_string(stats.duplicates_dropped) +
                  ";offsets=";
  for (const auto o : offsets.offset_us) s += std::to_string(o) + ",";
  return s;
}

/// Generates the pcaps, digests them, and records the in-memory reference
/// (trace::merge_sniffer_traces + TraceAnalyzer::analyze, the --in-memory
/// side of wlan_analyze --selftest) that every streamed iteration must equal.
int prepare_replay(const Options& opt) {
  fs::create_directories(opt.work_dir);
  const workload::CellResult cell = workload::run_cell(replay_cell(opt.seed));
  if (cell.sniffer_traces.size() != kReplaySniffers) {
    throw std::runtime_error("run_cell returned the wrong sniffer count");
  }
  const auto files = replay_files(opt.work_dir);
  std::uint64_t pcap_h = 1469598103934665603ULL;
  for (std::size_t j = 0; j < files.size(); ++j) {
    trace::write_pcap(cell.sniffer_traces[j], files[j]);
    pcap_h = fnv1a(read_file(files[j]), pcap_h);
  }

  std::vector<trace::Trace> traces;
  for (const auto& f : files) {
    auto reader = trace::open_capture(f);
    traces.push_back(trace::read_all(*reader));
  }
  const trace::MergeResult merged = trace::merge_sniffer_traces(traces);
  const core::AnalysisResult analysis = core::TraceAnalyzer{}.analyze(merged.trace);
  core::FigureAccumulator acc;
  acc.add(analysis);
  const std::string figures = figure_digest(acc, opt.work_dir / "reference");
  const std::string reference =
      replay_fingerprint(figures, analysis, merged.offsets, merged.stats);

  std::ofstream out(opt.work_dir / "reference.txt");
  out << hex(pcap_h) << '\n' << reference << '\n';
  if (!out) throw std::runtime_error("cannot write reference.txt");
  std::printf("{\"pcap_digest\": \"%s\", \"records\": %llu}\n",
              hex(pcap_h).c_str(),
              static_cast<unsigned long long>(merged.stats.records_in));
  return 0;
}

Iteration run_replay(const Options& opt, SpanLog& log) {
  const auto files = replay_files(opt.work_dir);
  Iteration it;
  std::vector<std::unique_ptr<trace::TraceReader>> owned;
  std::vector<trace::TraceReader*> inputs;
  const auto open = [&] {
    for (const auto& f : files) {
      owned.push_back(trace::open_capture(f));
      inputs.push_back(owned.back().get());
    }
  };
  time_discarded_setups(it, log, "trace.open", open, [&] {
    inputs.clear();
    owned.clear();
  });
  time_setup(it, log, "trace.open", open);
  const double t1 = wall_now_s();
  const double c1 = cpu_now_s();
  SegmentClock segments(it);
  trace::ClockOffsets offsets;
  {
    SpanLog::Scope s(log, "trace.offsets");
    offsets = trace::estimate_clock_offsets(inputs);
    for (auto* in : inputs) in->reset();
  }
  segments.mark();
  trace::MergingReader merger(inputs, offsets.offset_us);
  core::FigureAccumulator acc;
  core::FigureStreamSink sink(acc);
  core::StreamingAnalyzer analyzer({}, &sink);
  // Records move from the merge to the analyzer in fixed-size blocks so a
  // traced iteration spans blocks of calls, not single records; untraced
  // iterations run the identical loop.
  std::vector<trace::CaptureRecord> block(kReplayBlock);
  std::optional<std::int64_t> first_us;
  std::int64_t last_us = 0;
  for (bool more = true; more;) {
    std::size_t n = 0;
    {
      SpanLog::Scope s(log, "trace.read_merge");
      while (n < block.size() && merger.next(block[n])) ++n;
    }
    more = n == block.size();
    if (n == 0) break;
    if (!first_us) first_us = block[0].time_us;
    last_us = block[n - 1].time_us;
    {
      SpanLog::Scope s(log, "core.stream_push");
      for (std::size_t i = 0; i < n; ++i) analyzer.push(block[i]);
    }
    segments.mark();
  }
  core::AnalysisResult result;
  {
    SpanLog::Scope s(log, "core.stream_finish");
    result = analyzer.finish();
    acc.add_senders(result.senders);
    it.knee_pct = acc.knee_utilization();
  }
  segments.mark();
  it.wall_s = wall_now_s() - t1;
  it.cpu_s = cpu_now_s() - c1;
  it.merge = merger.stats();
  it.records = static_cast<double>(it.merge.records_in);
  it.sniffer_records = it.merge.records_in;
  it.sim_seconds = 1e-6 * static_cast<double>(last_us - first_us.value_or(last_us));
  it.fingerprint = replay_fingerprint(
      figure_digest(acc, opt.work_dir / "streaming"), result, offsets, it.merge);
  return it;
}

Iteration run_once(const Options& opt, SpanLog& log, bool first) {
  SpanLog::Scope root(log, "iteration");
  if (opt.workload == "fig06_sweep") return run_fig06(opt, log);
  if (opt.workload == "plenary_sharded") return run_session(opt, log, true, first);
  if (opt.workload == "day_churn") return run_session(opt, log, false, first);
  return run_replay(opt, log);
}

// --- statistics and output -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

template <class F>
double median_of(const std::vector<Iteration>& its, F field) {
  std::vector<double> v;
  for (const auto& it : its) v.push_back(field(it));
  return median(v);
}

/// Every iteration repeats the same work, so its time varies only with the
/// host, and contention from other tenants for cores, caches and memory
/// only ever adds time.  It comes in phases of seconds, shorter than an
/// iteration of the session workloads.  So the end-to-end timings cut each
/// iteration into segments (see Iteration), take each segment's fast decile
/// across the run's iterations, and add those up: the time of the timed
/// section on an undisturbed host, where a median would follow how busy the
/// host happened to be.
constexpr double kFastQuantile = 0.1;

double fast_total(const std::vector<Iteration>& its,
                  std::vector<double> Iteration::*segments) {
  if (its.empty()) return 0.0;
  const std::size_t n = (its.front().*segments).size();
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> v;
    for (const auto& it : its) {
      if ((it.*segments).size() != n) {
        throw std::runtime_error("iterations cut into different segment counts");
      }
      v.push_back((it.*segments)[k]);
    }
    total += quantile(v, kFastQuantile);
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double counter(const Iteration& it, obs::Id id) {
  return static_cast<double>(it.metrics.value(id));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// `probe_s`: the HostProbe times of the run.  A median is scaled by the
/// probe's median and a fast decile by the probe's fast decile, so each is
/// set against the host at the same moments of the run.
std::vector<Metric> end_to_end(const std::vector<Iteration>& its,
                               const std::vector<double>& probe_s) {
  std::vector<double> setup;
  for (const auto& it : its) setup.insert(setup.end(), it.setup_s.begin(), it.setup_s.end());
  const double typical_scale = ratio(kProbeNominalS, median(probe_s));
  const double fast_scale = ratio(kProbeNominalS, quantile(probe_s, kFastQuantile));
  const double fast_wall = fast_scale * fast_total(its, &Iteration::segment_wall_s);
  return {
      {"setup_s", typical_scale * median(setup), "s"},
      {"sim_s_per_s", ratio(its.front().sim_seconds, fast_wall), "1/s"},
      {"records_per_s", ratio(its.front().records, fast_wall), "1/s"},
      {"cpu_s", fast_scale * fast_total(its, &Iteration::segment_cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"knee_accuracy_pct",
       median_of(its,
                 [](auto& i) { return 100.0 - std::abs(i.knee_pct - kPaperKneePct); }),
       "pct"},
  };
}

std::vector<Metric> per_layer(const std::vector<Iteration>& traced,
                              const std::vector<Iteration>& untraced,
                              const SpanLog& log,
                              const std::vector<int>& traced_ids) {
  // Self time per span name, and how much of each iteration's timed wall
  // the layer spans (everything but the harness's own root) account for.
  std::map<std::string, std::vector<double>> self;
  std::vector<double> coverage;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    const auto st = self_times(log.spans(), traced_ids[k]);
    double layers = 0.0;
    for (const auto& [name, s] : st) {
      self[name].push_back(s);
      if (name != "iteration" && name != "exp.spec" && name != "workload.build" &&
          name != "trace.open") {
        layers += s;
      }
    }
    coverage.push_back(ratio(layers, traced[k].wall_s));
  }
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };

  std::vector<double> run_ms;
  for (const auto& it : traced) run_ms.insert(run_ms.end(), it.run_ms.begin(), it.run_ms.end());
  const double sweep_wall = median_of(traced, [](auto& i) { return i.wall_s; });
  const double run_sum_s =
      median_of(traced, [](auto& i) {
        double s = 0.0;
        for (const double ms : i.run_ms) s += ms / 1e3;
        return s;
      });
  const bool sweep = !run_ms.empty();

  const double events = median_of(traced, [](auto& i) {
    return counter(i, obs::Id::kEventsExecuted);
  });
  const double sniffer_records =
      median_of(traced, [](auto& i) { return static_cast<double>(i.sniffer_records); });
  const double merged_records = median_of(traced, [](auto& i) { return i.records; });
  const double sim_run_s = median_of(traced, [](auto& i) { return i.sim_run_s; });
  const double sim_run_cpu_s = median_of(traced, [](auto& i) { return i.sim_run_cpu_s; });
  const double traced_wall = median_of(traced, [](auto& i) { return i.wall_s; });
  const double untraced_wall = median_of(untraced, [](auto& i) { return i.wall_s; });

  return {
      {"bench.iterations", static_cast<double>(traced.size()), "count"},
      {"bench.self_time_coverage", median(coverage), "ratio"},
      {"exp.run_ms_p50", quantile(run_ms, 0.5), "ms"},
      {"exp.run_ms_p75", quantile(run_ms, 0.75), "ms"},
      {"exp.run_ms_max", run_ms.empty() ? 0.0 : *std::max_element(run_ms.begin(), run_ms.end()), "ms"},
      {"exp.run_ms_n", static_cast<double>(run_ms.size()), "count"},
      {"exp.pool_efficiency", sweep ? ratio(run_sum_s, kWorkerThreads * sweep_wall) : 0.0, "ratio"},
      {"exp.tail_s", sweep ? sweep_wall - run_sum_s / kWorkerThreads : 0.0, "s"},
      {"sim.run_s", sim_run_s, "s"},
      {"sim.run_cpu_s", sim_run_cpu_s, "s"},
      {"sim.parallelism", ratio(sim_run_cpu_s, sim_run_s), "ratio"},
      {"sim.ns_per_event", 1e9 * ratio(sim_run_s, events), "ns"},
      {"sim.events_executed", events, "count"},
      {"sim.events_cancelled_frac",
       median_of(traced, [](auto& i) {
         return ratio(counter(i, obs::Id::kEventsCancelled),
                      counter(i, obs::Id::kEventsScheduled));
       }), "ratio"},
      {"sim.broadcast_plan_hit_frac",
       median_of(traced, [](auto& i) {
         const double hits = counter(i, obs::Id::kBroadcastPlanHits);
         return ratio(hits, hits + counter(i, obs::Id::kBroadcastPlanRebuilds));
       }), "ratio"},
      {"sim.transmissions",
       median_of(traced, [](auto& i) { return counter(i, obs::Id::kTransmissions); }),
       "count"},
      {"phy.frame_success_hit_frac",
       median_of(traced, [](auto& i) {
         const double hits = counter(i, obs::Id::kFrameSuccessHits);
         return ratio(hits, hits + counter(i, obs::Id::kFrameSuccessEvals));
       }), "ratio"},
      {"phy.dbm_to_mw_evals",
       median_of(traced, [](auto& i) { return counter(i, obs::Id::kDbmToMwEvals); }),
       "count"},
      {"phy.link_cache_station_mutations",
       median_of(traced, [](auto& i) {
         return counter(i, obs::Id::kLinkCacheStationMutations);
       }), "count"},
      {"workload.churn_arrivals",
       median_of(traced, [](auto& i) { return counter(i, obs::Id::kChurnArrivals); }),
       "count"},
      {"workload.stations_removed",
       median_of(traced, [](auto& i) { return counter(i, obs::Id::kStationsRemoved); }),
       "count"},
      {"sim.capture_s", self_s("sim.capture"), "s"},
      {"trace.sniffer_capture_frac",
       median_of(traced, [](auto& i) {
         const double got = counter(i, obs::Id::kSnifferFramesCaptured);
         return ratio(got, got + counter(i, obs::Id::kSnifferFramesMissed));
       }), "ratio"},
      {"trace.merge_s", self_s("trace.merge"), "s"},
      {"trace.merge_ns_per_record", 1e9 * ratio(self_s("trace.merge"), sniffer_records), "ns"},
      {"core.analyze_s", self_s("core.analyze"), "s"},
      {"core.analyze_ns_per_record", 1e9 * ratio(self_s("core.analyze"), merged_records), "ns"},
      {"core.unrecorded_s", self_s("core.unrecorded"), "s"},
      {"trace.offsets_s", self_s("trace.offsets"), "s"},
      {"trace.read_merge_s", self_s("trace.read_merge"), "s"},
      {"trace.dup_frac",
       median_of(traced, [](auto& i) {
         return ratio(static_cast<double>(i.merge.duplicates_dropped),
                      static_cast<double>(i.merge.records_in));
       }), "ratio"},
      {"core.stream_push_s", self_s("core.stream_push"), "s"},
      {"obs.trace_overhead_frac", ratio(traced_wall, untraced_wall) - 1.0, "ratio"},
  };
}

void print_result(int attempted, int failed, const std::string& fingerprint,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"attempted\": %d, \"failed\": %d, \"fingerprint\": \"%s\", \"metrics\": {",
              attempted, failed, fingerprint.c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload {fig06_sweep|plenary_sharded|"
               "day_churn|capture_replay} --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--prepare] [--shards N]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    const std::string a = argv[i];
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--work-dir") opt.work_dir = value();
    else if (a == "--prepare") opt.prepare = true;
    else if (a == "--shards") opt.shards = std::stoi(value());
    else usage();
  }
  static const char* kWorkloads[] = {"fig06_sweep", "plenary_sharded", "day_churn",
                                     "capture_replay"};
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads), [&](const char* w) {
        return opt.workload == w;
      }) == std::end(kWorkloads) ||
      opt.work_dir.empty() || opt.seconds <= 0.0) {
    usage();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (opt.prepare) return prepare_replay(opt);
    fs::create_directories(opt.work_dir);
    std::string reference;
    if (opt.workload == "capture_replay") {
      std::ifstream in(opt.work_dir / "reference.txt");
      std::string pcap_digest;
      if (!std::getline(in, pcap_digest) || !std::getline(in, reference)) {
        throw std::runtime_error("capture_replay needs --prepare first");
      }
    }

    SpanLog log;
    std::vector<Iteration> traced, untraced;
    std::vector<int> traced_ids;
    HostProbe probe;
    std::vector<double> probe_s;
    std::string fingerprint;
    int attempted = 0;
    int failed = 0;
    const double start = wall_now_s();
    // The first iteration warms caches and the allocator and runs each
    // session in one Scenario::run call, so it sets peak_rss_mb; it is
    // checked like every other but timed by none.  After it, traced runs
    // alternate traced and untraced iterations so both see the same machine
    // state; untraced runs never enable the span log.
    while (attempted < 1 + kMinIterations * (opt.trace ? 2 : 1) ||
           wall_now_s() - start < opt.seconds) {
      const bool warmup = attempted == 0;
      const bool traced_now = opt.trace && attempted % 2 == 1;
      log.set_enabled(traced_now, attempted);
      ++attempted;
      try {
        Iteration it = run_once(opt, log, warmup);
        if (fingerprint.empty()) fingerprint = it.fingerprint;
        const bool ok = it.fingerprint == fingerprint &&
                        (reference.empty() || it.fingerprint == reference) &&
                        it.records > 0 && it.knee_pct > 0;
        if (!ok) {
          ++failed;
          std::fprintf(stderr, "iteration %d: output check failed: %s\n", attempted,
                       it.fingerprint.c_str());
          continue;
        }
        std::fprintf(stderr, "iteration %d%s: wall %.4f s, cpu %.4f s\n", attempted,
                     warmup ? " (warm-up)" : traced_now ? " (traced)" : "", it.wall_s,
                     it.cpu_s);
        if (warmup) continue;
        if (!opt.trace) probe_s.push_back(probe.run());
        if (traced_now) {
          traced_ids.push_back(attempted - 1);
          traced.push_back(std::move(it));
        } else {
          untraced.push_back(std::move(it));
        }
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "iteration %d threw: %s\n", attempted, e.what());
      }
    }
    log.set_enabled(false, attempted);

    std::vector<Metric> metrics;
    if (opt.trace) {
      metrics = per_layer(traced, untraced, log, traced_ids);
      const auto path = opt.work_dir / ("trace_" + opt.workload + ".json");
      if (!log.write_chrome_json(path.string())) {
        throw std::runtime_error("cannot write " + path.string());
      }
    } else {
      std::fprintf(stderr, "host probe: median %.5f s, fast decile %.5f s (nominal %.3f s)\n",
                   median(probe_s), quantile(probe_s, kFastQuantile), kProbeNominalS);
      metrics = end_to_end(untraced, probe_s);
    }
    print_result(attempted, failed, fingerprint, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
