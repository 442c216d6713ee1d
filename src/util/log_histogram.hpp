// Log-scale integer histogram for latency distributions.
//
// Fixed layout: 64 power-of-two buckets (by bit width of the value), each
// split into 8 linear sub-buckets — ~12% relative resolution across the
// full uint64 range in a flat 4 KiB array.  All-integer recording, merging,
// and percentile readout make the percentiles pure functions of the
// recorded multiset: deterministic across threads (per-run histograms merge
// in grid order) and across platforms, the same property the obs counters
// rely on.  This is the vehicle for the paper's §6 delay-components
// analysis: per-frame queueing and head-of-line delays recorded in
// microseconds, reported as percentiles.
#pragma once

#include <array>
#include <cstdint>

namespace wlan::util {

class LogHistogram {
 public:
  static constexpr std::size_t kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr std::size_t kBuckets = 64u << kSubBits;

  void record(std::uint64_t value, std::uint64_t weight = 1) {
    counts_[bucket_of(value)] += weight;
    total_ += weight;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  bool operator==(const LogHistogram&) const = default;

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// Value at quantile `q` in [0, 1]: the upper bound of the bucket holding
  /// the ceil(q * count)-th smallest sample (conservative — never under-
  /// reports).  0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (total_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (target < 1) target = 1;
    if (target > total_) target = total_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= target) return upper_bound(i);
    }
    return upper_bound(kBuckets - 1);
  }

  /// Largest value mapping to bucket `i` (the resolution guarantee).
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t i) {
    const std::uint64_t octave = i >> kSubBits;
    const std::uint64_t sub = i & ((1u << kSubBits) - 1);
    if (octave == 0) return sub;  // exact: values 0..7 in sub-buckets
    const std::uint64_t base = std::uint64_t{1} << (octave + kSubBits - 1);
    const std::uint64_t step = base >> kSubBits;
    return base + (sub + 1) * step - 1;
  }

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    if (v < (1u << kSubBits)) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const std::size_t octave = static_cast<std::size_t>(msb) - kSubBits + 1;
    const std::size_t sub =
        static_cast<std::size_t>(v >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    return (octave << kSubBits) + sub;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace wlan::util
