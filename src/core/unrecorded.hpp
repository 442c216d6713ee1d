// Unrecorded-frame estimation (§4.4, Figure 4c).
//
// Sniffers miss frames (bit errors, hardware drops, hidden terminals); the
// paper estimates how many using the DCF atomicity rules:
//   DATA->ACK        : an ACK not preceded by its DATA implies a missed DATA
//   RTS->CTS         : a CTS not preceded by its RTS implies a missed RTS
//   RTS->CTS->DATA   : an RTS followed by its DATA without a CTS in between
//                      implies a missed CTS
// and reports Equation 1, unrecorded / (unrecorded + captured).  The
// per-AP breakdown of Figure 4c is `ApActivity::missed` (core/per_ap.hpp),
// which applies the same rules while it attributes frames to APs.
#pragma once

#include <cstdint>
#include <optional>

#include "mac/frame.hpp"
#include "trace/record.hpp"
#include "util/flat_map.hpp"

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

/// A frame the atomicity rules prove went unrecorded.
struct MissedFrame {
  mac::FrameType type = mac::FrameType::kData;  ///< kData, kRts or kCts
  mac::Addr sender = mac::kNoAddr;              ///< who transmitted it
};

/// The three atomicity rules as one step per record of a time-sorted trace.
class AtomicityRules {
 public:
  /// Feeds the next record; returns the frame it proves was missed, if any.
  std::optional<MissedFrame> observe(const trace::CaptureRecord& r);

 private:
  struct PendingRts {
    std::int64_t time_us;
    mac::Addr dst;
    bool cts_seen;
  };

  std::optional<trace::CaptureRecord> prev_;
  /// Recorded RTSs awaiting their DATA, keyed by the RTS's sender.
  util::FlatMap<mac::Addr, PendingRts, mac::kBroadcast> pending_rts_;
};

/// Only the totals remain.  The wrapper stays because perfbench/harness.cpp,
/// kept unchanged so benchmark runs compare across commits, names
/// `core::UnrecordedReport` and reads `.totals`.
struct UnrecordedReport {
  UnrecordedTotals totals;
};

/// Runs the atomicity rules over a time-sorted trace.
[[nodiscard]] UnrecordedReport estimate_unrecorded(const trace::Trace& trace);

}  // namespace wlan::core
