#include "trace/record.hpp"

#include <algorithm>
#include <map>

namespace wlan::trace {

void sort_by_time(std::vector<CaptureRecord>& records) {
  // Stable insertion pass: each record moves back past the strictly later
  // records before it, so the work is O(n + inversions).  Sniffer captures
  // invert only where overlapping frames finish out of start order, a
  // handful per capture.  Past a budget of n moves the input is not nearly
  // sorted and stable_sort takes over; the prefix sorted so far keeps
  // equal timestamps in input order, so the result is stable_sort's either
  // way.
  const auto begin = records.begin();
  std::size_t budget = records.size();
  for (std::size_t i = 1; i < records.size(); ++i) {
    const std::int64_t t = records[i].time_us;
    std::size_t j = i;
    while (j > 0 && records[j - 1].time_us > t) {
      if (i - j == budget) {
        std::stable_sort(begin, records.end(),
                         [](const CaptureRecord& a, const CaptureRecord& b) {
                           return a.time_us < b.time_us;
                         });
        return;
      }
      --j;
    }
    if (j == i) continue;
    budget -= i - j;
    std::rotate(begin + static_cast<std::ptrdiff_t>(j),
                begin + static_cast<std::ptrdiff_t>(i),
                begin + static_cast<std::ptrdiff_t>(i) + 1);
  }
}

std::vector<std::pair<std::uint8_t, Trace>> split_by_channel(const Trace& t) {
  std::map<std::uint8_t, Trace> by_channel;
  for (const auto& r : t.records) {
    Trace& channel_trace = by_channel[r.channel];
    channel_trace.records.push_back(r);
  }
  std::vector<std::pair<std::uint8_t, Trace>> out;
  out.reserve(by_channel.size());
  for (auto& [channel, channel_trace] : by_channel) {
    channel_trace.start_us = t.start_us;
    channel_trace.end_us = t.end_us;
    out.emplace_back(channel, std::move(channel_trace));
  }
  return out;
}

CaptureRecord record_from_frame(const mac::Frame& frame, Microseconds at,
                                float snr_db, std::uint8_t sniffer_id) {
  CaptureRecord r;
  r.time_us = at.count();
  r.channel = frame.channel;
  r.rate = frame.rate;
  r.snr_db = snr_db;
  r.type = frame.type;
  r.src = frame.src;
  r.dst = frame.dst;
  r.bssid = frame.bssid;
  r.seq = frame.seq;
  r.retry = frame.retry;
  r.size_bytes = frame.size_bytes();
  r.sniffer_id = sniffer_id;
  r.frame_id = frame.id;
  return r;
}

}  // namespace wlan::trace
