#include "core/unrecorded.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/flat_map.hpp"

namespace wlan::core {

namespace {

/// Max DATA-end -> ACK gap, microseconds, for the pair to count as atomic
/// (the DATA's own airtime at 1 Mbps is added per frame).
constexpr std::int64_t kAckGapUs = 400;
/// Max RTS-end -> CTS gap, microseconds.
constexpr std::int64_t kCtsGapUs = 400;
/// Max RTS -> DATA window, microseconds, for the missed-CTS rule.
constexpr std::int64_t kRtsDataWindowUs = 3000;

bool is_data_like(mac::FrameType t) {
  return t == mac::FrameType::kData || t == mac::FrameType::kAssocReq ||
         t == mac::FrameType::kAssocResp || t == mac::FrameType::kDisassoc;
}

}  // namespace

UnrecordedReport estimate_unrecorded(const trace::Trace& trace) {
  UnrecordedReport report;
  const auto& recs = trace.records;
  report.totals.captured = recs.size();

  // BSSIDs: every address that appears as the BSSID of a data/mgmt/beacon
  // frame.  Used to attribute inferred misses to an AP.
  std::unordered_set<mac::Addr> bssids;
  for (const auto& r : recs) {
    if (r.bssid != mac::kNoAddr &&
        (is_data_like(r.type) || r.type == mac::FrameType::kBeacon)) {
      bssids.insert(r.bssid);
    }
  }

  std::unordered_map<mac::Addr, ApUnrecorded> per_ap;
  // wlan-lint: allow(unordered-iteration) — pre-seeds per_ap[b].bssid = b
  // for each key; each write is keyed by the visited element, so visit
  // order cannot change the resulting map contents
  for (mac::Addr b : bssids) per_ap[b].bssid = b;

  // A client's most recent BSSID, for attributing misses of client frames.
  // Point lookups on the per-record hot path (never iterated), so this is a
  // flat open-addressing table; broadcast is its reserved empty key and is
  // filtered before every insert below.
  util::FlatMap<mac::Addr, mac::Addr, mac::kBroadcast> client_bssid;

  auto attribute = [&](mac::Addr station) {
    // `station` transmitted the missed frame; find the AP it talks through.
    if (bssids.count(station)) {
      ++per_ap[station].missed;
      return;
    }
    const mac::Addr* it = client_bssid.find(station);
    if (it != nullptr) ++per_ap[*it].missed;
  };

  // Pending RTS exchanges for the missed-CTS rule: src -> (time, dst).
  struct PendingRts {
    std::int64_t time_us;
    mac::Addr dst;
    bool cts_seen;
  };
  util::FlatMap<mac::Addr, PendingRts, mac::kBroadcast> pending_rts;

  for (std::size_t i = 0; i < recs.size(); ++i) {
    const trace::CaptureRecord& r = recs[i];

    // --- capture attribution -------------------------------------------
    if (is_data_like(r.type) || r.type == mac::FrameType::kBeacon) {
      if (r.bssid != mac::kNoAddr) {
        ++per_ap[r.bssid].captured;
        if (!bssids.count(r.src) && r.src != mac::kBroadcast) {
          client_bssid.insert_or_assign(r.src, r.bssid);
        }
        if (!bssids.count(r.dst) && r.dst != mac::kBroadcast) {
          client_bssid.insert_or_assign(r.dst, r.bssid);
        }
      }
    } else {
      // Control frame: attribute to the AP side of the exchange.
      if (bssids.count(r.dst)) {
        ++per_ap[r.dst].captured;
      } else {
        const mac::Addr* it = client_bssid.find(r.dst);
        if (it != nullptr) ++per_ap[*it].captured;
      }
    }

    switch (r.type) {
      case mac::FrameType::kAck: {
        // DATA->ACK atomicity: the previous record must be the DATA this
        // ACK acknowledges (sent by the ACK's destination).
        bool matched = false;
        if (i > 0) {
          const trace::CaptureRecord& prev = recs[i - 1];
          matched = is_data_like(prev.type) && prev.src == r.dst &&
                    r.time_us - prev.time_us <=
                        kAckGapUs + 8LL * prev.size_bytes;
        }
        if (!matched) {
          ++report.totals.missed_data;
          attribute(r.dst);  // the DATA's sender
        }
        break;
      }
      case mac::FrameType::kCts: {
        // RTS->CTS atomicity: previous record must be the matching RTS.
        bool matched = false;
        if (i > 0) {
          const trace::CaptureRecord& prev = recs[i - 1];
          matched = prev.type == mac::FrameType::kRts && prev.src == r.dst &&
                    r.time_us - prev.time_us <= kCtsGapUs;
        }
        if (!matched) {
          ++report.totals.missed_rts;
          attribute(r.dst);  // the RTS's sender
        }
        // Mark any pending RTS from this exchange as answered.
        PendingRts* it = pending_rts.find(r.dst);
        if (it != nullptr) it->cts_seen = true;
        break;
      }
      case mac::FrameType::kRts:
        if (r.src != mac::kBroadcast) {
          pending_rts.insert_or_assign(r.src,
                                       PendingRts{r.time_us, r.dst, false});
        }
        break;
      default:
        if (is_data_like(r.type)) {
          // RTS->CTS->DATA atomicity: DATA following our recorded RTS
          // without a CTS in between means the CTS went unrecorded.
          const PendingRts* it = pending_rts.find(r.src);
          if (it != nullptr) {
            if (it->dst == r.dst &&
                r.time_us - it->time_us <= kRtsDataWindowUs) {
              if (!it->cts_seen) {
                ++report.totals.missed_cts;
                attribute(r.dst);  // the CTS sender is the DATA's receiver
              }
            }
            pending_rts.erase(r.src);
          }
        }
        break;
    }
  }

  report.per_ap.reserve(per_ap.size());
  // wlan-lint: allow(unordered-iteration) — the composite sort below is a
  // total order (captured desc, bssid asc), so extraction order is irrelevant
  for (auto& [addr, ap] : per_ap) report.per_ap.push_back(ap);
  // BSSID tiebreak makes equal-captured APs order deterministically across
  // standard libraries instead of inheriting hash-iteration order.
  std::sort(report.per_ap.begin(), report.per_ap.end(),
            [](const ApUnrecorded& a, const ApUnrecorded& b) {
              if (a.captured != b.captured) return a.captured > b.captured;
              return a.bssid < b.bssid;
            });
  return report;
}

}  // namespace wlan::core
