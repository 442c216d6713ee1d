#include "trace/merge.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace wlan::trace {

namespace {

/// Within-capture sortedness tolerance, matching the analyzer's: sniffers
/// log overlapping frames at frame-end, so starts can invert by a few us.
constexpr std::int64_t kSortSlackUs = 10;

/// Beacon anchors kept per input during offset estimation.
constexpr std::size_t kMaxAnchors = 8192;

/// Beacon anchor identity: (bssid, 12-bit seq).  28 bits, so ~0u is free
/// to mark empty table cells.
constexpr std::uint32_t anchor_key(const CaptureRecord& r) {
  return (static_cast<std::uint32_t>(r.bssid) << 12) | (r.seq & 0xfffu);
}
static_assert(sizeof(mac::Addr) * 8 + 12 < 32);
using AnchorTable = util::FlatMap<std::uint32_t, std::int64_t, ~0u>;

/// Cross-sniffer duplicate identity.  ACK/CTS normalize src to kNoAddr:
/// the real frames carry no transmitter address, so raw sim captures and
/// pcap round-trips must dedup identically.
std::uint64_t dedup_key(const CaptureRecord& r) {
  const bool no_src =
      r.type == mac::FrameType::kAck || r.type == mac::FrameType::kCts;
  const std::uint64_t src = no_src ? mac::kNoAddr : r.src;
  return (static_cast<std::uint64_t>(r.seq) & 0xfffu) |
         (static_cast<std::uint64_t>(r.dst) << 12) | (src << 28) |
         (static_cast<std::uint64_t>(r.retry) << 44) |
         (static_cast<std::uint64_t>(r.type) << 45) |
         (static_cast<std::uint64_t>(r.channel) << 48);
}
// The widest field ends at bit 56, so ~0ULL (the dedup table's empty
// marker) is never a key.
static_assert(sizeof(CaptureRecord::channel) * 8 + 48 <= 56);

}  // namespace

ClockOffsets estimate_clock_offsets(const std::vector<TraceReader*>& inputs) {
  ClockOffsets out;
  out.offset_us.assign(inputs.size(), 0);
  out.anchors.assign(inputs.size(), 0);
  if (inputs.size() < 2) return out;

  // Reference anchors: the longest prefix of input 0 in which every beacon
  // key occurs once.  The first repeated key marks a 12-bit sequence wrap;
  // collection stops there so that everything kept is a first occurrence —
  // on multi-hour captures (many wraps) the prefix still holds thousands
  // of valid anchors, and clock offsets are constant, so a prefix is all
  // the estimate needs.
  AnchorTable ref;
  CaptureRecord r;
  while (inputs[0]->next(r)) {
    if (r.type != mac::FrameType::kBeacon) continue;
    const std::uint32_t key = anchor_key(r);
    if (ref.find(key) != nullptr) break;
    ref.insert_or_assign(key, r.time_us);
    if (ref.size() >= kMaxAnchors) break;
  }

  for (std::size_t i = 1; i < inputs.size(); ++i) {
    std::vector<std::int64_t> deltas;
    // Reference keys this input has matched; only its first occurrence of
    // a key counts.  Keys outside ref never match, so they need no entry.
    AnchorTable seen;  // keys only; the value is unused
    while (inputs[i]->next(r)) {
      if (r.type != mac::FrameType::kBeacon) continue;
      const std::uint32_t key = anchor_key(r);
      const std::int64_t* ref_time = ref.find(key);
      if (ref_time == nullptr || seen.find(key) != nullptr) continue;
      seen.insert_or_assign(key, 0);
      deltas.push_back(r.time_us - *ref_time);
      // Every reference anchor matched (or the cap hit): no point scanning
      // the rest of a potentially huge capture.
      if (deltas.size() >= kMaxAnchors || deltas.size() >= ref.size()) break;
    }
    out.anchors[i] = deltas.size();
    if (!deltas.empty()) {
      // Upper median; exact when the true offset is constant, robust when a
      // minority of anchors are first-occurrence mismatches.
      const auto mid = deltas.begin() +
                       static_cast<std::ptrdiff_t>(deltas.size() / 2);
      std::nth_element(deltas.begin(), mid, deltas.end());
      out.offset_us[i] = *mid;
    }
  }
  return out;
}

MergingReader::MergingReader(std::vector<TraceReader*> inputs,
                             std::vector<std::int64_t> offsets_us,
                             const MergeOptions& options)
    : inputs_(std::move(inputs)), offsets_us_(std::move(offsets_us)),
      options_(options), head_(inputs_.size()), live_(inputs_.size(), false),
      prev_time_(inputs_.size(), std::numeric_limits<std::int64_t>::min()) {
  if (offsets_us_.size() != inputs_.size()) {
    throw std::invalid_argument(
        "MergingReader: one clock offset per input required");
  }
}

void MergingReader::advance(std::size_t input) {
  CaptureRecord& r = head_[input];
  live_[input] = inputs_[input]->next(r);
  if (!live_[input]) return;
  r.time_us -= offsets_us_[input];
  if (r.time_us + kSortSlackUs < prev_time_[input]) {
    // A regression beyond capture jitter means the input is not the
    // time-sorted stream the k-way merge requires.
    live_[input] = false;
    throw std::runtime_error(
        "MergingReader: input " + std::to_string(input) +
        " is not time-sorted (" + std::to_string(r.time_us) + " after " +
        std::to_string(prev_time_[input]) + "); sort the capture first");
  }
  prev_time_[input] = r.time_us;
  ++stats_.records_in;
}

void MergingReader::prime() {
  for (std::size_t i = 0; i < inputs_.size(); ++i) advance(i);
}

bool MergingReader::next(CaptureRecord& out) {
  if (!primed_) {
    prime();
    primed_ = true;
  }
  for (;;) {
    // The smallest (corrected time, input index) head goes next.
    std::size_t input = inputs_.size();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (live_[i] && (input == inputs_.size() ||
                       head_[i].time_us < head_[input].time_us)) {
        input = i;
      }
    }
    if (input == inputs_.size()) return false;
    const CaptureRecord r = head_[input];
    const std::int64_t time_us = r.time_us;
    advance(input);

    // Slide the dedup window forward.
    while (emit_head_ < emit_order_.size() &&
           emit_order_[emit_head_].second + options_.dup_window_us < time_us) {
      const auto& [key, when] = emit_order_[emit_head_++];
      const std::int64_t* last = last_emit_.find(key);
      if (last != nullptr && *last == when) last_emit_.erase(key);
    }
    if (emit_head_ * 2 >= emit_order_.size() && emit_head_ >= 64) {
      emit_order_.erase(emit_order_.begin(),
                        emit_order_.begin() +
                            static_cast<std::ptrdiff_t>(emit_head_));
      emit_head_ = 0;
    }

    const std::uint64_t key = dedup_key(r);
    assert(key >> 56 == 0);
    emit_order_.emplace_back(key, time_us);
    std::int64_t* last = last_emit_.find(key);
    if (last != nullptr && time_us - *last <= options_.dup_window_us) {
      // Same frame heard by another sniffer: suppress, and slide the
      // window so a third sniffer's copy is suppressed too.
      *last = time_us;
      ++stats_.duplicates_dropped;
      continue;
    }
    last_emit_.insert_or_assign(key, time_us);
    ++stats_.emitted;
    out = r;
    return true;
  }
}

void MergingReader::reset() {
  for (TraceReader* in : inputs_) in->reset();
  head_.assign(inputs_.size(), CaptureRecord{});
  live_.assign(inputs_.size(), false);
  prev_time_.assign(inputs_.size(), std::numeric_limits<std::int64_t>::min());
  primed_ = false;
  stats_ = {};
  last_emit_ = {};
  emit_order_.clear();
  emit_head_ = 0;
}

MergeResult merge_sniffer_traces(const std::vector<Trace>& traces,
                                 const MergeOptions& options) {
  MergeResult result;
  std::vector<VectorReader> readers;
  readers.reserve(traces.size());
  for (const Trace& t : traces) readers.emplace_back(t);
  std::vector<TraceReader*> inputs;
  inputs.reserve(readers.size());
  for (VectorReader& r : readers) inputs.push_back(&r);

  if (options.clock_correction) {
    result.offsets = estimate_clock_offsets(inputs);
    for (TraceReader* in : inputs) in->reset();
  } else {
    result.offsets.offset_us.assign(traces.size(), 0);
    result.offsets.anchors.assign(traces.size(), 0);
  }

  // Every input record is emitted at most once: one allocation, no growth.
  std::size_t total = 0;
  for (const Trace& t : traces) total += t.records.size();
  std::vector<CaptureRecord>& out = result.trace.records;
  out.reserve(total);
  MergingReader merger(std::move(inputs), result.offsets.offset_us, options);
  for (CaptureRecord r; merger.next(r);) out.push_back(r);
  if (!out.empty()) {
    result.trace.start_us = out.front().time_us;
    result.trace.end_us = out.back().time_us;
  }
  result.stats = merger.stats();
  return result;
}

}  // namespace wlan::trace
