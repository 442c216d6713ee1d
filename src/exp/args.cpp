#include "exp/args.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>

#include "obs/trace_span.hpp"

namespace wlan::exp {

namespace {

#if WLAN_OBS_ENABLED
/// --trace-out destination; the atexit hook below writes it after main
/// returns, so every driver gets the dump without any per-driver code.
std::string g_trace_out;  // NOLINT(cert-err58-cpp): literal-free construction

void dump_trace_at_exit() {
  if (g_trace_out.empty()) return;
  if (obs::TraceLog::instance().write(g_trace_out)) {
    std::fprintf(stderr, "trace written to %s\n", g_trace_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write trace to %s\n", g_trace_out.c_str());
  }
}
#endif

[[noreturn]] void usage(std::string_view what, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "%.*s\n\n", static_cast<int>(what.size()), what.data());
  std::fprintf(out,
               "  --threads N     worker threads (default: all cores)\n"
               "  --shards N      per-run channel-shard worker threads\n"
               "                  (output is byte-identical for any N)\n"
               "  --seeds N       seed repeats per grid point\n"
               "  --duration S    per-run simulated seconds\n"
               "  --out-dir DIR   where CSV series + manifests land (default .)\n"
               "  --only RUN      replay one grid run (a manifest 'run' index)\n"
               "  --churn LIST    comma-separated churn-rate axis (population\n"
               "                  turnovers/min; churn scenarios only)\n"
               "  --rate-policies LIST\n"
               "                  comma-separated rate-policy axis (registry\n"
               "                  keys, e.g. arf,minstrel; see --list)\n"
               "  --trace-out F   dump Chrome trace-event JSON (wall-clock\n"
               "                  spans; open in Perfetto) to F at exit\n"
               "  --quiet         no per-run progress on stderr\n"
               "  --help          this text\n");
  std::exit(code);
}

}  // namespace

template <typename T>
std::optional<T> parse_whole(const char* v) {
  static_assert(std::is_same_v<T, long long> || std::is_same_v<T, double>);
  errno = 0;
  char* end = nullptr;
  T parsed{};
  if constexpr (std::is_same_v<T, long long>) {
    parsed = std::strtoll(v, &end, 10);
  } else {
    parsed = std::strtod(v, &end);
  }
  if (end == v || *end != '\0' || errno == ERANGE) return std::nullopt;
  return parsed;
}

template std::optional<long long> parse_whole<long long>(const char*);
template std::optional<double> parse_whole<double>(const char*);

BenchArgs parse_bench_args(int argc, char** argv, std::string_view what,
                           bool allow_positionals) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (allow_positionals && !flag.starts_with("--") && flag != "-h") {
      args.positionals.push_back(flag);
      continue;
    }
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        usage(what, 2);
      }
      return argv[++i];
    };
    auto positive_int = [&]() {
      const char* v = value();
      const std::optional<long long> parsed = parse_whole<long long>(v);
      if (!parsed || *parsed < 1 || *parsed > INT_MAX) {
        std::fprintf(stderr, "%s wants a positive integer, got \"%s\"\n",
                     flag.c_str(), v);
        usage(what, 2);
      }
      return static_cast<int>(*parsed);
    };
    if (flag == "--help" || flag == "-h") {
      usage(what, 0);
    } else if (flag == "--threads") {
      args.threads = positive_int();
    } else if (flag == "--shards") {
      args.shards = positive_int();
    } else if (flag == "--seeds") {
      args.seeds = positive_int();
    } else if (flag == "--duration") {
      const char* v = value();
      const std::optional<double> parsed = parse_whole<double>(v);
      if (!parsed || !std::isfinite(*parsed) || *parsed <= 0.0) {
        std::fprintf(stderr, "--duration wants positive seconds, got \"%s\"\n",
                     v);
        usage(what, 2);
      }
      args.duration_s = *parsed;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--only") {
      const std::optional<long long> parsed = parse_whole<long long>(value());
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "--only wants a non-negative run index\n");
        usage(what, 2);
      }
      args.only_run = static_cast<std::size_t>(*parsed);
    } else if (flag == "--churn") {
      const std::string list = value();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string tok = list.substr(pos, comma - pos);
        const std::optional<double> parsed = parse_whole<double>(tok.c_str());
        if (!parsed || !std::isfinite(*parsed)) {
          std::fprintf(stderr, "--churn wants comma-separated numbers\n");
          usage(what, 2);
        }
        args.churn_rates.push_back(*parsed);
        pos = comma + 1;
      }
    } else if (flag == "--rate-policies") {
      const std::string list = value();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string tok = list.substr(pos, comma - pos);
        if (tok.empty()) {
          std::fprintf(stderr,
                       "--rate-policies wants comma-separated policy keys\n");
          usage(what, 2);
        }
        args.rate_policies.push_back(tok);
        pos = comma + 1;
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value();
#if WLAN_OBS_ENABLED
      // Enable before the sweep starts; dump after main returns.  Handler
      // order: instance() is constructed here, *before* std::atexit, so the
      // dump runs before the TraceLog's own static destructor.
      g_trace_out = args.trace_out;
      obs::TraceLog::instance().enable();
      std::atexit(dump_trace_at_exit);
#else
      std::fprintf(stderr,
                   "--trace-out: observability compiled out (-DWLAN_OBS=OFF); "
                   "no trace will be written\n");
#endif
    } else if (flag == "--quiet") {
      args.progress = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      usage(what, 2);
    }
  }
  return args;
}

void apply_args(const BenchArgs& args, ExperimentSpec& spec) {
  if (args.seeds > 0) spec.seeds_per_point = args.seeds;
  if (args.shards > 0) spec.base.shards = args.shards;
  if (args.duration_s > 0.0) spec.duration_s = args.duration_s;
  if (!args.churn_rates.empty()) spec.churn_rates = args.churn_rates;
  if (!args.rate_policies.empty()) spec.rate_policies = args.rate_policies;
}

RunnerOptions runner_options(const BenchArgs& args) {
  RunnerOptions opt;
  opt.threads = args.threads;
  opt.progress = args.progress;
  opt.out_dir = args.out_dir;
  opt.only_run = args.only_run;
  return opt;
}

}  // namespace wlan::exp
