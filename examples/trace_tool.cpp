// trace_tool: analyze a capture file without re-simulating.
//
//   $ ./trace_tool <trace-file> [--channel N] [--csv out.csv] [--pcap out.pcap]
//
// Reads a .trace (binary), .csv, or .pcap capture, runs the full paper
// analysis, and prints the summary.  Demonstrates that the core library is
// usable on externally produced captures.  Utilization (Eq. 8) is a
// per-channel quantity: pass --channel to restrict a multi-channel merge.
#include <climits>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>

#include "core/analyzer.hpp"
#include "core/per_ap.hpp"
#include "core/session_report.hpp"
#include "exp/args.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_io.hpp"

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <capture.{trace,csv,pcap}> [--channel N] "
               "[--csv out] [--pcap out]\n",
               argv0);
  return 2;
}

struct ToolOptions {
  std::optional<int> channel;
  std::optional<std::string> csv_out;
  std::optional<std::string> pcap_out;
};

/// Parses the flags after the capture path.  Each flag takes exactly one
/// value and may appear once; anything else is a usage error, reported
/// before the capture is read.
std::optional<ToolOptions> parse_flags(int argc, char** argv) {
  ToolOptions opt;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s wants a value\n", flag.c_str());
      return std::nullopt;
    }
    const char* value = argv[i + 1];
    const bool repeated = (flag == "--channel" && opt.channel) ||
                          (flag == "--csv" && opt.csv_out) ||
                          (flag == "--pcap" && opt.pcap_out);
    if (repeated) {
      std::fprintf(stderr, "%s given twice\n", flag.c_str());
      return std::nullopt;
    }
    if (flag == "--csv") {
      opt.csv_out = value;
    } else if (flag == "--pcap") {
      opt.pcap_out = value;
    } else if (flag == "--channel") {
      const std::optional<long long> channel =
          wlan::exp::parse_whole<long long>(value);
      if (!channel || *channel < INT_MIN || *channel > INT_MAX) {
        std::fprintf(stderr, "--channel wants an integer, got \"%s\"\n",
                     value);
        return std::nullopt;
      }
      opt.channel = static_cast<int>(*channel);
    } else {
      std::fprintf(stderr, "unknown flag \"%s\"\n", flag.c_str());
      return std::nullopt;
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlan;
  if (argc < 2) return usage(argv[0]);
  const std::optional<ToolOptions> opt = parse_flags(argc, argv);
  if (!opt) return usage(argv[0]);

  const std::string path = argv[1];
  trace::Trace capture;
  try {
    if (ends_with(path, ".csv")) {
      capture = trace::read_csv(path);
    } else if (ends_with(path, ".pcap")) {
      capture = trace::read_pcap(path);
    } else {
      capture = trace::read_binary(path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // The --channel filter must run before the analysis.
  if (opt->channel) {
    const int wanted = *opt->channel;
    std::erase_if(capture.records, [wanted](const auto& r) {
      return int{r.channel} != wanted;
    });
    std::printf("filtered to channel %d: %zu records remain\n", wanted,
                capture.records.size());
  }

  std::set<int> channels;
  for (const auto& r : capture.records) channels.insert(r.channel);
  if (channels.size() > 1) {
    std::printf("note: capture spans %zu channels; utilization below sums "
                "them — use --channel N for the paper's per-channel Eq. 8\n",
                channels.size());
  }

  std::printf("%s: %zu records over %.1f s\n\n", path.c_str(),
              capture.records.size(), capture.duration_seconds());

  const core::TraceAnalyzer analyzer;
  const auto analysis = analyzer.analyze(capture);
  std::fputs(core::render_summary(core::summarize(analysis, capture)).c_str(),
             stdout);

  const auto aps = core::ap_activity(capture);
  std::printf("%zu BSSIDs seen; busiest:", aps.size());
  for (std::size_t i = 0; i < aps.size() && i < 5; ++i) {
    std::printf(" %d(%llu)", aps[i].bssid,
                static_cast<unsigned long long>(aps[i].frames));
  }
  std::printf("\n");

  if (opt->csv_out) {
    trace::write_csv(capture, *opt->csv_out);
    std::printf("wrote %s\n", opt->csv_out->c_str());
  }
  if (opt->pcap_out) {
    trace::write_pcap(capture, *opt->pcap_out);
    std::printf("wrote %s\n", opt->pcap_out->c_str());
  }
  return 0;
}
