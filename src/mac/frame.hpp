// MAC frame model.
//
// We carry only the fields the paper's analysis reads from its tethereal
// captures (type, addresses, size, rate, retry flag, sequence number), plus
// simulator bookkeeping (a globally unique frame id for ground-truth
// matching that a real sniffer would not have).
#pragma once

#include <cstdint>
#include <string_view>

#include "phy/rate.hpp"
#include "util/time.hpp"

namespace wlan::mac {

/// Station identifier.  A stand-in for the 48-bit MAC address: unique per
/// radio in a simulation, compact enough to index dense arrays.
using Addr = std::uint16_t;
inline constexpr Addr kBroadcast = 0xFFFF;
inline constexpr Addr kNoAddr = 0xFFFE;

enum class FrameType : std::uint8_t {
  kData = 0,
  kAck = 1,
  kRts = 2,
  kCts = 3,
  kBeacon = 4,
  kAssocReq = 5,
  kAssocResp = 6,
  kDisassoc = 7,
};

[[nodiscard]] std::string_view frame_type_name(FrameType t);

/// True for the frame types the paper counts as "control" frames.
[[nodiscard]] constexpr bool is_control(FrameType t) {
  return t == FrameType::kAck || t == FrameType::kRts || t == FrameType::kCts;
}

/// True for management frames (beacons, association).
[[nodiscard]] constexpr bool is_management(FrameType t) {
  return t == FrameType::kBeacon || t == FrameType::kAssocReq ||
         t == FrameType::kAssocResp || t == FrameType::kDisassoc;
}

/// True for data frames and the association exchange (AssocReq/Resp,
/// Disassoc): the frames a client and its AP exchange under one BSSID.
[[nodiscard]] constexpr bool is_data_like(FrameType t) {
  return t == FrameType::kData || t == FrameType::kAssocReq ||
         t == FrameType::kAssocResp || t == FrameType::kDisassoc;
}

/// On-air MAC sizes (bytes, header+FCS) of control/management frames.
/// 802.11: ACK/CTS 14, RTS 20; beacons ~90 with typical IEs.
inline constexpr std::uint32_t kAckBytes = 14;
inline constexpr std::uint32_t kCtsBytes = 14;
inline constexpr std::uint32_t kRtsBytes = 20;
inline constexpr std::uint32_t kBeaconBytes = 90;
inline constexpr std::uint32_t kAssocBytes = 40;

struct Frame {
  std::uint64_t id = 0;        ///< simulator-unique (ground truth only)
  FrameType type = FrameType::kData;
  Addr src = kNoAddr;
  Addr dst = kNoAddr;
  Addr bssid = kNoAddr;        ///< AP the exchange belongs to
  std::uint16_t seq = 0;       ///< per-source sequence number (data only)
  bool retry = false;          ///< retransmission flag
  std::uint32_t payload = 0;   ///< data payload bytes (0 for control)
  phy::Rate rate = phy::Rate::kR1;
  std::uint8_t channel = 1;
  Microseconds nav{0};         ///< duration field (virtual carrier sense)

  /// Total MAC bytes on air, header included (what a sniffer reports).
  [[nodiscard]] std::uint32_t size_bytes() const;

  /// PLCP + body airtime at this frame's rate.
  [[nodiscard]] Microseconds airtime() const;
};

/// Constructors for well-formed frames of each type.
Frame make_data(Addr src, Addr dst, Addr bssid, std::uint16_t seq,
                std::uint32_t payload, phy::Rate rate, std::uint8_t channel);
Frame make_ack(Addr src, Addr dst, std::uint8_t channel);
Frame make_rts(Addr src, Addr dst, Addr bssid, std::uint8_t channel,
               Microseconds nav);
Frame make_cts(Addr src, Addr dst, std::uint8_t channel, Microseconds nav);
/// Beacons carry the radio's sequence counter like any other MSDU — the
/// (bssid, seq) pair identifies a beacon instance uniquely until the 12-bit
/// counter wraps, which is what lets multi-sniffer merges use beacons as
/// clock anchors (paper §4.3; trace/merge.hpp).
Frame make_beacon(Addr src, std::uint8_t channel, std::uint16_t seq);

/// 802.11 sequence numbers are 12 bits; frame constructors mask with this.
inline constexpr std::uint16_t kSeqMask = 0x0fff;

}  // namespace wlan::mac
