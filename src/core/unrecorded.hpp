// Unrecorded-frame estimation (§4.4, Figure 4c).
//
// Sniffers miss frames (bit errors, hardware drops, hidden terminals); the
// paper estimates how many using the DCF atomicity rules:
//   DATA->ACK        : an ACK not preceded by its DATA implies a missed DATA
//   RTS->CTS         : a CTS not preceded by its RTS implies a missed RTS
//   RTS->CTS->DATA   : an RTS followed by its DATA without a CTS in between
//                      implies a missed CTS
// and reports Equation 1, unrecorded / (unrecorded + captured).
#pragma once

#include <cstdint>
#include <vector>

#include "mac/frame.hpp"
#include "trace/record.hpp"

namespace wlan::core {

struct UnrecordedTotals {
  std::uint64_t captured = 0;          ///< frames in the trace
  std::uint64_t missed_data = 0;
  std::uint64_t missed_rts = 0;
  std::uint64_t missed_cts = 0;

  [[nodiscard]] std::uint64_t missed() const {
    return missed_data + missed_rts + missed_cts;
  }
  /// Equation 1.
  [[nodiscard]] double unrecorded_pct() const {
    const double total = static_cast<double>(missed() + captured);
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(missed()) / total;
  }
};

/// Per-AP (per-BSSID) attribution of captures and inferred misses.
struct ApUnrecorded {
  mac::Addr bssid = mac::kNoAddr;
  std::uint64_t captured = 0;
  std::uint64_t missed = 0;

  [[nodiscard]] double unrecorded_pct() const {
    const double total = static_cast<double>(missed + captured);
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(missed) / total;
  }
};

struct UnrecordedReport {
  UnrecordedTotals totals;
  /// Sorted by captured frames, descending (the Fig. 4 AP ranking).
  std::vector<ApUnrecorded> per_ap;
};

/// Runs the estimators over a time-sorted trace.
[[nodiscard]] UnrecordedReport estimate_unrecorded(const trace::Trace& trace);

}  // namespace wlan::core
