#include "core/unrecorded.hpp"

namespace wlan::core {

namespace {

/// Max DATA-end -> ACK gap, microseconds, for the pair to count as atomic
/// (the DATA's own airtime at 1 Mbps is added per frame).
constexpr std::int64_t kAckGapUs = 400;
/// Max RTS-end -> CTS gap, microseconds.
constexpr std::int64_t kCtsGapUs = 400;
/// Max RTS -> DATA window, microseconds, for the missed-CTS rule.
constexpr std::int64_t kRtsDataWindowUs = 3000;

}  // namespace

std::optional<MissedFrame> AtomicityRules::observe(
    const trace::CaptureRecord& r) {
  const std::optional<trace::CaptureRecord> prev = prev_;
  prev_ = r;

  switch (r.type) {
    case mac::FrameType::kAck: {
      // DATA->ACK atomicity: the previous record must be the DATA this ACK
      // acknowledges (sent by the ACK's destination).
      const bool matched = prev && mac::is_data_like(prev->type) &&
                           prev->src == r.dst &&
                           r.time_us - prev->time_us <=
                               kAckGapUs + 8LL * prev->size_bytes;
      if (!matched) return MissedFrame{mac::FrameType::kData, r.dst};
      return std::nullopt;
    }
    case mac::FrameType::kCts: {
      // RTS->CTS atomicity: previous record must be the matching RTS.
      const bool matched = prev && prev->type == mac::FrameType::kRts &&
                           prev->src == r.dst &&
                           r.time_us - prev->time_us <= kCtsGapUs;
      // Mark any pending RTS from this exchange as answered.
      PendingRts* pending = pending_rts_.find(r.dst);
      if (pending != nullptr) pending->cts_seen = true;
      if (!matched) return MissedFrame{mac::FrameType::kRts, r.dst};
      return std::nullopt;
    }
    case mac::FrameType::kRts:
      if (r.src != mac::kBroadcast) {
        pending_rts_.insert_or_assign(r.src,
                                      PendingRts{r.time_us, r.dst, false});
      }
      return std::nullopt;
    default:
      break;
  }
  if (!mac::is_data_like(r.type)) return std::nullopt;

  // RTS->CTS->DATA atomicity: DATA following our recorded RTS without a CTS
  // in between means the CTS went unrecorded.
  const PendingRts* pending = pending_rts_.find(r.src);
  if (pending == nullptr) return std::nullopt;
  const bool missed_cts = pending->dst == r.dst &&
                          r.time_us - pending->time_us <= kRtsDataWindowUs &&
                          !pending->cts_seen;
  pending_rts_.erase(r.src);
  // The CTS sender is the DATA's receiver.
  if (missed_cts) return MissedFrame{mac::FrameType::kCts, r.dst};
  return std::nullopt;
}

UnrecordedReport estimate_unrecorded(const trace::Trace& trace) {
  UnrecordedReport report;
  report.totals.captured = trace.records.size();
  AtomicityRules rules;
  for (const auto& r : trace.records) {
    const std::optional<MissedFrame> miss = rules.observe(r);
    if (!miss) continue;
    switch (miss->type) {
      case mac::FrameType::kData:
        ++report.totals.missed_data;
        break;
      case mac::FrameType::kRts:
        ++report.totals.missed_rts;
        break;
      default:
        ++report.totals.missed_cts;
        break;
    }
  }
  return report;
}

}  // namespace wlan::core
