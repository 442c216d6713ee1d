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

}  // namespace

int main(int argc, char** argv) {
  using namespace wlan;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <capture.{trace,csv,pcap}> [--csv out] [--pcap out]\n",
                 argv[0]);
    return 2;
  }

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

  // Optional --channel filter (must run before the analysis).
  for (int i = 2; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--channel")) {
      const std::optional<long long> channel =
          exp::parse_whole<long long>(argv[i + 1]);
      if (!channel || *channel < INT_MIN || *channel > INT_MAX) {
        std::fprintf(stderr, "--channel wants an integer, got \"%s\"\n",
                     argv[i + 1]);
        return 2;
      }
      const int wanted = static_cast<int>(*channel);
      std::erase_if(capture.records, [wanted](const auto& r) {
        return int{r.channel} != wanted;
      });
      std::printf("filtered to channel %d: %zu records remain\n", wanted,
                  capture.records.size());
    }
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

  for (int i = 2; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--csv")) {
      trace::write_csv(capture, argv[i + 1]);
      std::printf("wrote %s\n", argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--pcap")) {
      trace::write_pcap(capture, argv[i + 1]);
      std::printf("wrote %s\n", argv[i + 1]);
    }
  }
  return 0;
}
