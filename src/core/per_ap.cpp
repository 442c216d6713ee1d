#include "core/per_ap.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/unrecorded.hpp"

namespace wlan::core {

namespace {

/// mac::Addr is 16-bit, so per-station lookups — one per record on a
/// multi-hundred-thousand-record conference capture — index flat tables
/// over every address instead of hashing.
constexpr std::size_t kAddrSpace = std::size_t{mac::kBroadcast} + 1;

/// 1 for every address that is the BSSID of a data-like or beacon frame.
std::vector<std::uint8_t> bssid_table(const trace::Trace& trace) {
  std::vector<std::uint8_t> is_bssid(kAddrSpace, 0);
  for (const auto& r : trace.records) {
    if ((mac::is_data_like(r.type) || r.type == mac::FrameType::kBeacon) &&
        r.bssid != mac::kNoAddr) {
      is_bssid[r.bssid] = 1;
    }
  }
  return is_bssid;
}

}  // namespace

std::vector<ApActivity> ap_activity(const trace::Trace& trace) {
  const std::vector<std::uint8_t> is_bssid = bssid_table(trace);
  std::vector<mac::Addr> client_bssid(kAddrSpace, mac::kNoAddr);
  std::vector<mac::Addr> clients;  // addresses with client_bssid set

  // One row per AP in first-touch order; the sort at the end is a total
  // order, so that order never reaches the result.
  constexpr std::uint32_t kNoRow = UINT32_MAX;
  std::vector<ApActivity> out;
  std::vector<std::uint32_t> row_of(kAddrSpace, kNoRow);
  auto row = [&](mac::Addr bssid) -> ApActivity& {
    if (row_of[bssid] == kNoRow) {
      row_of[bssid] = static_cast<std::uint32_t>(out.size());
      out.push_back(ApActivity{.bssid = bssid});
    }
    return out[row_of[bssid]];
  };

  // Charges a captured frame to its AP and learns client -> BSSID from it.
  auto attribute = [&](const trace::CaptureRecord& r) {
    if (mac::is_data_like(r.type) || r.type == mac::FrameType::kBeacon) {
      if (r.bssid == mac::kNoAddr) return;
      ApActivity& ap = row(r.bssid);
      ++ap.frames;
      if (r.type == mac::FrameType::kBeacon) {
        ++ap.beacons;
      } else {
        ++ap.data_frames;
      }
      if (!is_bssid[r.src]) {
        if (client_bssid[r.src] == mac::kNoAddr) clients.push_back(r.src);
        client_bssid[r.src] = r.bssid;
      }
      if (r.dst != mac::kBroadcast && !is_bssid[r.dst]) {
        if (client_bssid[r.dst] == mac::kNoAddr) clients.push_back(r.dst);
        client_bssid[r.dst] = r.bssid;
      }
      return;
    }
    // Control frames carry no BSSID: attribute through the addressed
    // station's known AP.
    const mac::Addr bssid = is_bssid[r.dst] ? r.dst : client_bssid[r.dst];
    if (bssid == mac::kNoAddr) return;
    ApActivity& ap = row(bssid);
    ++ap.frames;
    ++ap.control_frames;
  };

  AtomicityRules rules;
  for (const auto& r : trace.records) {
    attribute(r);
    // A missed frame belongs to its sender's AP: the sender itself if it is
    // a BSSID, else the sender's latest BSSID — read after r's own
    // attribution, since r may be what names it.  Broadcast is nobody's
    // client.
    const std::optional<MissedFrame> miss = rules.observe(r);
    if (!miss) continue;
    mac::Addr bssid = mac::kNoAddr;
    if (is_bssid[miss->sender]) {
      bssid = miss->sender;
    } else if (miss->sender != mac::kBroadcast) {
      bssid = client_bssid[miss->sender];
    }
    if (bssid != mac::kNoAddr) ++row(bssid).missed;
  }

  // Last-association-wins client attribution: client_bssid holds each
  // station's most recent BSSID, so a roaming client counts once, at the AP
  // it ended on, and mid-capture arrivals simply appear when first heard.
  for (const mac::Addr client : clients) {
    ++row(client_bssid[client]).clients;
  }

  // Frames descending with the BSSID as tiebreak, so equal-frame APs
  // (symmetric scenarios tie often) order the same on every toolchain.
  std::sort(out.begin(), out.end(), [](const ApActivity& a, const ApActivity& b) {
    if (a.frames != b.frames) return a.frames > b.frames;
    return a.bssid < b.bssid;
  });
  return out;
}

std::vector<UserCountPoint> user_count_series(const trace::Trace& trace,
                                              const UserCountConfig& cfg) {
  std::vector<UserCountPoint> out;
  if (trace.records.empty()) return out;

  const std::vector<std::uint8_t> is_bssid = bssid_table(trace);

  // station -> last activity time; departure on Disassoc or idle timeout.
  std::unordered_map<mac::Addr, std::int64_t> last_seen;

  const std::int64_t start = trace.start_us;
  std::int64_t window_end = start + cfg.window.count();

  auto sample = [&](std::int64_t at) {
    std::size_t users = 0;
    // wlan-lint: allow(unordered-iteration) — expiry scan: erases stale
    // entries and counts survivors; both are visit-order-independent
    for (auto it = last_seen.begin(); it != last_seen.end();) {
      if (at - it->second > cfg.idle_timeout.count()) {
        it = last_seen.erase(it);
      } else {
        ++users;
        ++it;
      }
    }
    out.push_back(UserCountPoint{static_cast<double>(at - start) / 1e6,
                                 static_cast<double>(users)});
  };

  for (const auto& r : trace.records) {
    while (r.time_us >= window_end) {
      sample(window_end);
      window_end += cfg.window.count();
    }
    if (r.type == mac::FrameType::kDisassoc) {
      last_seen.erase(r.src);
      continue;
    }
    // Any client-originated frame proves presence.
    if (r.src != mac::kNoAddr && !is_bssid[r.src] &&
        (mac::is_data_like(r.type) || r.type == mac::FrameType::kRts)) {
      last_seen[r.src] = r.time_us;
    }
  }
  // Keep sampling through the capture's end, so quiet tails still appear.
  while (window_end <= trace.end_us + cfg.window.count()) {
    sample(window_end);
    window_end += cfg.window.count();
  }
  return out;
}

}  // namespace wlan::core
