// wlan_analyze: the paper's full figure set over one-or-many capture files.
//
//   $ wlan_analyze sniffer0.pcap sniffer1.pcap ... [flags]
//
// Multiple captures are treated as per-sniffer recordings of one session:
// clock offsets are estimated from shared beacons, the captures are k-way
// merged with cross-sniffer duplicate suppression (trace/merge.hpp), and
// the merged stream feeds the analyzers.  Everything streams by default —
// pcap files are read in chunks and records are pushed one at a time
// through core::StreamingAnalyzer, so peak memory is O(1) in capture size;
// --in-memory switches to the classic load-then-analyze path, which is
// guaranteed (and --selftest verifies) to produce byte-identical figures.
//
// Flags: the shared exp dialect (--out-dir, --quiet, --duration for the
// sim-backed modes) plus the tool's own, listed in usage() below.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/streaming.hpp"
#include "exp/args.hpp"
#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace wlan;

struct ToolOptions {
  bool in_memory = false;
  std::optional<int> channel;
  trace::MergeOptions merge;
  std::optional<std::string> selftest_dir;
  std::optional<std::string> sim_capture_dir;
  int sniffers = 2;
};

void usage(const char* argv0, std::FILE* out = stderr) {
  std::fprintf(out,
               "usage: %s <capture.{pcap,csv,trace}> [more captures...] [flags]\n"
               "       %s --selftest DIR   [--duration S] [--sniffers N]\n"
               "       %s --sim-capture DIR [--duration S] [--sniffers N]\n\n"
               "  --in-memory            load everything, then analyze (default: stream)\n"
               "  --channel N            restrict the analysis to one channel\n"
               "  --merge-window US      cross-sniffer duplicate window (default 100)\n"
               "  --no-clock-correction  merge on raw sniffer clocks\n"
               "  --sniffers N           sniffer count for the sim-backed modes (default 2)\n"
               "  --selftest DIR         sim a multi-sniffer cell, write pcaps, verify the\n"
               "                         streaming and in-memory figures are byte-identical\n"
               "  --sim-capture DIR      write per-sniffer pcaps from a multi-sniffer cell run\n"
               "plus the shared experiment flags (--out-dir, --quiet, --duration, --help)\n",
               argv0, argv0, argv0);
}

/// Splits the tool's own flags out of argv before the exp-dialect parser
/// sees the rest.
ToolOptions extract_tool_flags(int& argc, char** argv) {
  ToolOptions opt;
  std::vector<char*> kept{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict numeric parsing: a typo must be an error, not a silent zero.
    const auto int_value = [&](long long lo, long long hi) {
      const char* flag = argv[i];
      const char* v = value();
      const std::optional<long long> parsed = exp::parse_whole<long long>(v);
      if (!parsed || *parsed < lo || *parsed > hi) {
        std::fprintf(stderr,
                     "%s wants an integer in [%lld, %lld], got \"%s\"\n",
                     flag, lo, hi, v);
        usage(argv[0]);
        std::exit(2);
      }
      return *parsed;
    };
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(argv[0], stdout);
      // Fall through to parse_bench_args, which appends the shared
      // experiment flags to stdout and exits 0.
      kept.push_back(argv[i]);
    } else if (!std::strcmp(argv[i], "--in-memory")) {
      opt.in_memory = true;
    } else if (!std::strcmp(argv[i], "--channel")) {
      opt.channel = static_cast<int>(int_value(1, 14));
    } else if (!std::strcmp(argv[i], "--merge-window")) {
      opt.merge.dup_window_us = int_value(0, 1'000'000);
    } else if (!std::strcmp(argv[i], "--no-clock-correction")) {
      opt.merge.clock_correction = false;
    } else if (!std::strcmp(argv[i], "--sniffers")) {
      opt.sniffers = static_cast<int>(int_value(2, 16));
    } else if (!std::strcmp(argv[i], "--selftest")) {
      opt.selftest_dir = value();
    } else if (!std::strcmp(argv[i], "--sim-capture")) {
      opt.sim_capture_dir = value();
    } else {
      kept.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept.size());
  for (int i = 0; i < argc; ++i) argv[i] = kept[static_cast<std::size_t>(i)];
  return opt;
}

class ChannelFilterReader final : public trace::TraceReader {
 public:
  ChannelFilterReader(trace::TraceReader* inner, int channel)
      : inner_(inner), channel_(channel) {}
  bool next(trace::CaptureRecord& out) override {
    while (inner_->next(out)) {
      if (int{out.channel} == channel_) return true;
    }
    return false;
  }
  void reset() override { inner_->reset(); }

 private:
  trace::TraceReader* inner_;
  int channel_;
};

void write_figure_set(const core::FigureAccumulator& acc,
                      const std::string& out_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(out_dir);
  const auto path = [&](const char* name) {
    return (fs::path(out_dir) / name).string();
  };
  core::write_figure_csv(acc.fig06_throughput_goodput(), path("fig06.csv"));
  core::write_figure_csv(acc.fig07_rts_cts(), path("fig07.csv"));
  core::write_figure_csv(acc.fig08_busytime_share(), path("fig08.csv"));
  core::write_figure_csv(acc.fig09_bytes_per_rate(), path("fig09.csv"));
  static constexpr std::pair<core::SizeClass, const char*> kClasses[] = {
      {core::SizeClass::kS, "fig10_13_S.csv"},
      {core::SizeClass::kM, "fig10_13_M.csv"},
      {core::SizeClass::kL, "fig10_13_L.csv"},
      {core::SizeClass::kXL, "fig10_13_XL.csv"},
  };
  for (const auto& [cls, name] : kClasses) {
    core::write_figure_csv(acc.fig10_11_frames_of_class(cls), path(name));
  }
  core::write_figure_csv(acc.fig14_first_attempt_acked(), path("fig14.csv"));
  core::write_figure_csv(acc.fig15_acceptance_delay(), path("fig15.csv"));
}

struct AnalyzeOutcome {
  core::AnalysisResult result;
  trace::ClockOffsets offsets;
  trace::MergeStats merge_stats;
  std::size_t seconds = 0;
  double knee = 0.0;
};

/// The streaming pipeline: chunked readers -> clock estimation -> merging
/// reader -> push-based analysis straight into figure bins and the
/// per-second CSV.  Never holds more than one record per input.
AnalyzeOutcome analyze_streaming(const std::vector<std::string>& files,
                                 const ToolOptions& opt,
                                 const std::string& out_dir) {
  namespace fs = std::filesystem;
  std::vector<std::unique_ptr<trace::TraceReader>> owned;
  std::vector<trace::TraceReader*> inputs;
  for (const auto& f : files) {
    owned.push_back(trace::open_capture(f));
    inputs.push_back(owned.back().get());
  }

  AnalyzeOutcome out;
  std::optional<trace::MergingReader> merger;
  trace::TraceReader* source = inputs[0];
  if (inputs.size() > 1) {
    if (opt.merge.clock_correction) {
      out.offsets = trace::estimate_clock_offsets(inputs);
      for (auto* in : inputs) in->reset();
    } else {
      out.offsets.offset_us.assign(inputs.size(), 0);
      out.offsets.anchors.assign(inputs.size(), 0);
    }
    merger.emplace(inputs, out.offsets.offset_us, opt.merge);
    source = &*merger;
  }
  std::optional<ChannelFilterReader> filter;
  if (opt.channel) {
    filter.emplace(source, *opt.channel);
    source = &*filter;
  }

  fs::create_directories(out_dir);
  core::FigureAccumulator acc;
  core::FigureStreamSink figures(acc);
  core::SecondsCsvSink seconds(
      (fs::path(out_dir) / "fig05_seconds.csv").string());
  core::TeeSink tee({&figures, &seconds});
  core::StreamingAnalyzer analyzer({}, &tee);
  // A single .trace/.csv capture carries explicit session bounds (quiet
  // leading/trailing seconds included); honor them like the batch path.
  // Merges and channel filters derive bounds from surviving records.
  if (owned.size() == 1 && !opt.channel) {
    if (const auto* o = dynamic_cast<trace::OwningReader*>(owned[0].get())) {
      analyzer.set_bounds(o->trace().start_us, o->trace().end_us);
    }
  }

  trace::CaptureRecord r;
  while (source->next(r)) analyzer.push(r);
  out.result = analyzer.finish();
  acc.add_senders(out.result.senders);
  if (merger) out.merge_stats = merger->stats();
  out.seconds = acc.seconds_absorbed();
  out.knee = acc.knee_utilization();
  write_figure_set(acc, out_dir);
  return out;
}

/// The classic path: materialize, merge, analyze, then emit the same files.
AnalyzeOutcome analyze_in_memory(const std::vector<std::string>& files,
                                 const ToolOptions& opt,
                                 const std::string& out_dir) {
  namespace fs = std::filesystem;
  std::vector<trace::Trace> traces;
  for (const auto& f : files) {
    auto reader = trace::open_capture(f);
    if (auto* o = dynamic_cast<trace::OwningReader*>(reader.get())) {
      traces.push_back(o->trace());  // keeps .trace/.csv session bounds
    } else {
      traces.push_back(trace::read_all(*reader));
    }
  }

  AnalyzeOutcome out;
  trace::Trace capture;
  if (traces.size() > 1) {
    trace::MergeResult merged = trace::merge_sniffer_traces(traces, opt.merge);
    capture = std::move(merged.trace);
    out.offsets = std::move(merged.offsets);
    out.merge_stats = merged.stats;
  } else {
    capture = std::move(traces[0]);
  }
  if (opt.channel) {
    std::erase_if(capture.records, [&](const trace::CaptureRecord& r) {
      return int{r.channel} != *opt.channel;
    });
    // Re-derive the session bounds from the surviving records, exactly as
    // the streaming path (which never sees the filtered-out channels) does.
    capture.start_us = capture.records.empty() ? 0 : capture.records.front().time_us;
    capture.end_us = capture.records.empty() ? 0 : capture.records.back().time_us;
  }

  out.result = core::TraceAnalyzer{}.analyze(capture);
  fs::create_directories(out_dir);
  core::write_seconds_csv(out.result,
                          (fs::path(out_dir) / "fig05_seconds.csv").string());
  core::FigureAccumulator acc;
  acc.add(out.result);
  out.seconds = acc.seconds_absorbed();
  out.knee = acc.knee_utilization();
  write_figure_set(acc, out_dir);
  return out;
}

void print_summary(const AnalyzeOutcome& out, std::size_t num_files,
                   const std::string& out_dir) {
  const auto& r = out.result;
  std::printf("%zu capture%s: %llu frames over %zu s "
              "(%llu data, %llu acks, %llu rts, %llu cts)\n",
              num_files, num_files == 1 ? "" : "s",
              static_cast<unsigned long long>(r.total_frames), out.seconds,
              static_cast<unsigned long long>(r.total_data),
              static_cast<unsigned long long>(r.total_acks),
              static_cast<unsigned long long>(r.total_rts),
              static_cast<unsigned long long>(r.total_cts));
  if (num_files > 1) {
    std::printf("merge: %llu records in, %llu cross-sniffer duplicates dropped\n",
                static_cast<unsigned long long>(out.merge_stats.records_in),
                static_cast<unsigned long long>(out.merge_stats.duplicates_dropped));
    for (std::size_t i = 1; i < out.offsets.offset_us.size(); ++i) {
      std::printf("clock: sniffer %zu offset %+lld us (%zu beacon anchors)\n",
                  i, static_cast<long long>(out.offsets.offset_us[i]),
                  out.offsets.anchors[i]);
    }
  }
  if (out.knee > 0) std::printf("throughput knee: ~%.0f%% utilization\n", out.knee);
  std::printf("figures written to %s (fig05_seconds + fig06..fig15 CSVs)\n",
              out_dir.c_str());
}

/// A short multi-sniffer cell session whose per-sniffer captures land in
/// `dir` as sniffer<j>.pcap — the sim-backed source for the selftest, the
/// check.sh smoke, and the CI memory-flatness probe.
std::vector<std::string> write_sim_capture(const std::string& dir,
                                           double duration_s, int sniffers) {
  namespace fs = std::filesystem;
  workload::CellConfig cell;
  cell.seed = 62;
  cell.num_users = 10;
  cell.per_user_pps = 30.0;
  cell.profile.closed_loop = true;
  cell.profile.window = 2;
  cell.duration_s = duration_s > 0 ? duration_s : 8.0;
  cell.warmup_s = 1.0;
  cell.num_sniffers = sniffers;
  const workload::CellResult result = workload::run_cell(cell);

  fs::create_directories(dir);
  std::vector<std::string> files;
  for (std::size_t j = 0; j < result.sniffer_traces.size(); ++j) {
    files.push_back(
        (fs::path(dir) / ("sniffer" + std::to_string(j) + ".pcap")).string());
    trace::write_pcap(result.sniffer_traces[j], files.back());
    std::fprintf(stderr, "wrote %s (%zu records, clock skew %+lld us)\n",
                 files.back().c_str(), result.sniffer_traces[j].records.size(),
                 static_cast<long long>(static_cast<std::int64_t>(j) *
                                        cell.sniffer_clock_skew_us));
  }
  return files;
}

bool files_identical(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::string ca((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string cb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  return ca == cb;
}

int run_selftest(const std::string& dir, double duration_s,
                 const ToolOptions& opt) {
  namespace fs = std::filesystem;
  const auto files = write_sim_capture(dir, duration_s, opt.sniffers);

  const std::string stream_dir = (fs::path(dir) / "streaming").string();
  const std::string memory_dir = (fs::path(dir) / "in_memory").string();
  const auto streamed = analyze_streaming(files, opt, stream_dir);
  const auto batch = analyze_in_memory(files, opt, memory_dir);

  int failures = 0;
  if (streamed.offsets.offset_us != batch.offsets.offset_us) {
    std::printf("FAIL: clock offsets differ between paths\n");
    ++failures;
  }
  static constexpr const char* kFiles[] = {
      "fig05_seconds.csv", "fig06.csv", "fig07.csv", "fig08.csv",
      "fig09.csv", "fig10_13_S.csv", "fig10_13_M.csv", "fig10_13_L.csv",
      "fig10_13_XL.csv", "fig14.csv", "fig15.csv"};
  for (const char* name : kFiles) {
    const bool same = files_identical((fs::path(stream_dir) / name).string(),
                                      (fs::path(memory_dir) / name).string());
    if (!same) {
      std::printf("FAIL: %s differs between streaming and in-memory paths\n",
                  name);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("selftest OK: %zu sniffers, %llu merged records, "
                "%llu duplicates dropped, all %zu figure CSVs byte-identical\n",
                files.size(),
                static_cast<unsigned long long>(streamed.merge_stats.emitted),
                static_cast<unsigned long long>(
                    streamed.merge_stats.duplicates_dropped),
                std::size(kFiles));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions opt = extract_tool_flags(argc, argv);
  const exp::BenchArgs args = exp::parse_bench_args(
      argc, argv, "wlan_analyze: paper figure set over capture files", true);

  try {
    if (opt.selftest_dir) {
      return run_selftest(*opt.selftest_dir, args.duration_s, opt);
    }
    if (opt.sim_capture_dir) {
      write_sim_capture(*opt.sim_capture_dir, args.duration_s, opt.sniffers);
      return 0;
    }
    if (args.positionals.empty()) {
      usage(argv[0]);
      return 2;
    }
    const AnalyzeOutcome out =
        opt.in_memory ? analyze_in_memory(args.positionals, opt, args.out_dir)
                      : analyze_streaming(args.positionals, opt, args.out_dir);
    if (args.progress) print_summary(out, args.positionals.size(), args.out_dir);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
