// Capture records — the unit of data the analysis layer consumes.
//
// A CaptureRecord is what an RFMon-mode sniffer reports per frame: receive
// timestamp, channel, rate, SNR, and the MAC header fields (paper §4.2: the
// sniffers captured RFMon + MAC + IP + TCP/UDP headers with a 250-byte snap
// length; we model the RFMon + MAC portion the analysis actually uses).
//
// A TxRecord is simulator ground truth (one per transmission *attempt*) that
// no real sniffer could produce; tests opt in to it
// (sim::NetworkConfig::record_ground_truth) to validate the estimators.
//
// Layer contract (trace): this layer is the boundary between producers
// (sim sniffers, pcap/CSV readers) and consumers (core analyzers).  Both
// sides speak time-sorted std::vector<CaptureRecord>; neither may depend on
// the other, which is what lets the core analyzers run on real captures.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/frame.hpp"
#include "phy/rate.hpp"
#include "util/time.hpp"

namespace wlan::trace {

// Field order is for packing: sniffer_id sits in the byte after retry, which
// makes the record 40 bytes rather than 48.
struct CaptureRecord {
  std::int64_t time_us = 0;    ///< sniffer clock at frame start
  std::uint8_t channel = 1;
  phy::Rate rate = phy::Rate::kR1;
  float snr_db = 0.0f;         ///< RFMon-reported SNR at the sniffer
  mac::FrameType type = mac::FrameType::kData;
  mac::Addr src = mac::kNoAddr;
  mac::Addr dst = mac::kNoAddr;
  mac::Addr bssid = mac::kNoAddr;
  std::uint16_t seq = 0;
  bool retry = false;
  std::uint8_t sniffer_id = 0;
  std::uint32_t size_bytes = 0;  ///< total MAC bytes on air
  /// Simulator frame id (0 for real captures).  Lets tests join captures
  /// against ground truth; the analysis layer never reads it.
  std::uint64_t frame_id = 0;

  bool operator==(const CaptureRecord&) const = default;
};
static_assert(sizeof(CaptureRecord) == 40,
              "one CaptureRecord is stored per captured frame: keep it packed");

/// Outcome of one transmission attempt, from the simulator's omniscient view.
enum class TxOutcome : std::uint8_t {
  kDelivered = 0,   ///< receiver decoded it
  kCollision = 1,   ///< overlapped with another frame, not captured
  kChannelError = 2 ///< bit errors at the receiver
};

struct TxRecord {
  std::int64_t time_us = 0;
  std::uint64_t frame_id = 0;
  mac::FrameType type = mac::FrameType::kData;
  mac::Addr src = mac::kNoAddr;
  mac::Addr dst = mac::kNoAddr;
  std::uint8_t channel = 1;
  phy::Rate rate = phy::Rate::kR1;
  std::uint32_t size_bytes = 0;
  bool retry = false;
  std::uint16_t seq = 0;
  TxOutcome outcome = TxOutcome::kDelivered;
};

/// A full capture: records sorted by time plus capture metadata.
struct Trace {
  std::vector<CaptureRecord> records;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;

  [[nodiscard]] double duration_seconds() const {
    return static_cast<double>(end_us - start_us) / 1e6;
  }
};

/// Stable sort by timestamp (sniffer merge produces near-sorted input).
void sort_by_time(std::vector<CaptureRecord>& records);

/// Builds a CaptureRecord from a frame as heard by a sniffer.
CaptureRecord record_from_frame(const mac::Frame& frame, Microseconds at,
                                float snr_db, std::uint8_t sniffer_id);

/// Splits a capture into per-channel traces (utilization — Eq. 8 — is a
/// per-channel quantity; analyze each separately).  Channel numbers are
/// returned in ascending order alongside their traces.
std::vector<std::pair<std::uint8_t, Trace>> split_by_channel(const Trace& t);

}  // namespace wlan::trace
