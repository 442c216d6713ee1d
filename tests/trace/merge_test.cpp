#include "trace/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/analyzer.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace wlan::trace {
namespace {

CaptureRecord beacon(mac::Addr bssid, std::uint16_t seq, std::int64_t at) {
  CaptureRecord r;
  r.type = mac::FrameType::kBeacon;
  r.src = bssid;
  r.dst = mac::kBroadcast;
  r.bssid = bssid;
  r.seq = seq;
  r.time_us = at;
  r.size_bytes = mac::kBeaconBytes;
  r.channel = 6;
  return r;
}

CaptureRecord data(mac::Addr src, std::uint16_t seq, std::int64_t at,
                   bool retry = false) {
  CaptureRecord r;
  r.type = mac::FrameType::kData;
  r.src = src;
  r.dst = 1;
  r.bssid = 1;
  r.seq = seq;
  r.retry = retry;
  r.time_us = at;
  r.size_bytes = 500;
  r.channel = 6;
  return r;
}

Trace as_trace(std::vector<CaptureRecord> records) {
  Trace t;
  t.records = std::move(records);
  if (!t.records.empty()) {
    t.start_us = t.records.front().time_us;
    t.end_us = t.records.back().time_us;
  }
  return t;
}

/// Two sniffers hearing the same beacons, sniffer 1's clock ahead by a
/// constant offset: the estimator must recover it exactly.
TEST(ClockOffsetTest, RecoversConstantOffsetExactly) {
  constexpr std::int64_t kOffset = 2345;
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i));
    b.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i + kOffset));
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  ASSERT_EQ(offsets.offset_us.size(), 2u);
  EXPECT_EQ(offsets.offset_us[0], 0);
  EXPECT_EQ(offsets.offset_us[1], kOffset);
  EXPECT_EQ(offsets.anchors[1], 20u);
}

TEST(ClockOffsetTest, MedianRejectsMinorityOutliers) {
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 21; ++i) {
    a.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i));
    // Three anchors corrupted (capture glitch); the rest offset by 700 us.
    const std::int64_t off = i < 3 ? 999'999 : 700;
    b.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i + off));
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  EXPECT_EQ(offsets.offset_us[1], 700);
}

TEST(ClockOffsetTest, SurvivesSequenceNumberWrap) {
  // Long capture: the (bssid, seq) space wraps, so every key eventually
  // recurs.  The estimator must keep the pre-wrap prefix as anchors rather
  // than discarding recurring keys until none remain.
  constexpr std::int64_t kOffset = 512;
  constexpr int kWraps = 3, kSeqSpace = 50;  // small stand-in for 4096
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < kWraps * kSeqSpace; ++i) {
    const auto seq = static_cast<std::uint16_t>(i % kSeqSpace);
    a.push_back(beacon(9, seq, 100'000 * i));
    b.push_back(beacon(9, seq, 100'000 * i + kOffset));
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  EXPECT_EQ(offsets.offset_us[1], kOffset);
  EXPECT_EQ(offsets.anchors[1], static_cast<std::size_t>(kSeqSpace));
}

TEST(ClockOffsetTest, NoSharedBeaconsMeansZeroOffset) {
  const Trace ta = as_trace({beacon(9, 1, 0)});
  const Trace tb = as_trace({data(5, 1, 50)});
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  EXPECT_EQ(offsets.offset_us[1], 0);
  EXPECT_EQ(offsets.anchors[1], 0u);
}

/// The same frames heard by two sniffers merge to one copy each.
TEST(MergeTest, SuppressesCrossSnifferDuplicates) {
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
    b.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
  }
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  EXPECT_EQ(result.trace.records.size(), 10u);
  EXPECT_EQ(result.stats.duplicates_dropped, 10u);
  EXPECT_EQ(result.stats.records_in, 20u);
}

TEST(MergeTest, KeepsFramesOnlyOneSnifferHeard) {
  // Sniffer a hears everything; b misses the odd frames.
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
    if (i % 2 == 0) b.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
  }
  // And b alone hears one frame a missed entirely.
  b.push_back(data(7, 99, 4500));
  sort_by_time(b);
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  EXPECT_EQ(result.trace.records.size(), 11u);
  EXPECT_EQ(result.stats.duplicates_dropped, 5u);
}

TEST(MergeTest, RetryIsNotADuplicateOfFirstAttempt) {
  // Same (src, seq) 300 us apart, first attempt then retry: both kept —
  // the retry flag is part of the duplicate identity.
  const auto result = merge_sniffer_traces(
      {as_trace({data(5, 7, 1000, false), data(5, 7, 1300, true)}),
       as_trace({})});
  EXPECT_EQ(result.trace.records.size(), 2u);
  EXPECT_EQ(result.stats.duplicates_dropped, 0u);
}

TEST(MergeTest, DedupIgnoresAckSourceAddress) {
  // The same ACK as recorded by a sim sniffer (src known) and as reloaded
  // from pcap (src erased): still one frame.
  CaptureRecord ack_sim;
  ack_sim.type = mac::FrameType::kAck;
  ack_sim.src = 3;
  ack_sim.dst = 5;
  ack_sim.time_us = 100;
  ack_sim.size_bytes = mac::kAckBytes;
  CaptureRecord ack_pcap = ack_sim;
  ack_pcap.src = mac::kNoAddr;
  const auto result =
      merge_sniffer_traces({as_trace({ack_sim}), as_trace({ack_pcap})});
  EXPECT_EQ(result.trace.records.size(), 1u);
  EXPECT_EQ(result.stats.duplicates_dropped, 1u);
}

TEST(MergeTest, CorrectsClocksBeforeDeduplicating) {
  // Sniffer b runs 2 ms fast: raw timestamps differ by far more than the
  // dup window, so dedup only works if the beacon-anchored correction
  // lands first.  Beacons double as the anchors.
  constexpr std::int64_t kOffset = 2000;
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i));
    a.push_back(data(5, static_cast<std::uint16_t>(i), 100'000 * i + 3000));
    b.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i + kOffset));
    b.push_back(
        data(5, static_cast<std::uint16_t>(i), 100'000 * i + 3000 + kOffset));
  }
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  EXPECT_EQ(result.offsets.offset_us[1], kOffset);
  EXPECT_EQ(result.trace.records.size(), 20u);
  EXPECT_EQ(result.stats.duplicates_dropped, 20u);

  // Without correction every record doubles.
  MergeOptions raw;
  raw.clock_correction = false;
  const auto uncorrected = merge_sniffer_traces({as_trace(a), as_trace(b)}, raw);
  EXPECT_EQ(uncorrected.trace.records.size(), 40u);
}

TEST(MergeTest, OutputIsTimeSortedWithEmittedBounds) {
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(data(5, static_cast<std::uint16_t>(i), 137 * i + 11));
    b.push_back(data(6, static_cast<std::uint16_t>(i), 201 * i + 3));
  }
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  ASSERT_FALSE(result.trace.records.empty());
  for (std::size_t i = 1; i < result.trace.records.size(); ++i) {
    EXPECT_LE(result.trace.records[i - 1].time_us,
              result.trace.records[i].time_us);
  }
  EXPECT_EQ(result.trace.start_us, result.trace.records.front().time_us);
  EXPECT_EQ(result.trace.end_us, result.trace.records.back().time_us);
}

TEST(MergeTest, ThrowsOnUnsortedInput) {
  const Trace bad = as_trace({data(5, 1, 10'000), data(5, 2, 100)});
  VectorReader ra(bad);
  MergingReader merger({&ra}, {0});
  CaptureRecord r;
  EXPECT_THROW({ while (merger.next(r)) {} }, std::runtime_error);
}

TEST(MergeTest, EmptyInputs) {
  EXPECT_TRUE(merge_sniffer_traces({}).trace.records.empty());
  EXPECT_TRUE(merge_sniffer_traces({Trace{}, Trace{}}).trace.records.empty());
}

// --- Differential oracle ------------------------------------------------------
//
// A verbatim reference of the node-based merger (unordered_map dedup window,
// deque emit order, priority_queue over input heads, unordered_map/set
// offset tables).  The production merger must emit exactly what this one
// emits — every record, every MergeStats field, every clock offset — on any
// input, because downstream figures are pinned byte-for-byte.
namespace reference {

constexpr std::int64_t kSortSlackUs = 10;
constexpr std::size_t kMaxAnchors = 8192;

constexpr std::uint32_t anchor_key(const CaptureRecord& r) {
  return (static_cast<std::uint32_t>(r.bssid) << 12) | (r.seq & 0xfffu);
}

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

ClockOffsets estimate_clock_offsets(const std::vector<TraceReader*>& inputs) {
  ClockOffsets out;
  out.offset_us.assign(inputs.size(), 0);
  out.anchors.assign(inputs.size(), 0);
  if (inputs.size() < 2) return out;
  std::unordered_map<std::uint32_t, std::int64_t> ref;
  CaptureRecord r;
  while (inputs[0]->next(r)) {
    if (r.type != mac::FrameType::kBeacon) continue;
    if (!ref.emplace(anchor_key(r), r.time_us).second) break;
    if (ref.size() >= kMaxAnchors) break;
  }
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    std::vector<std::int64_t> deltas;
    std::unordered_set<std::uint32_t> seen;
    while (inputs[i]->next(r)) {
      if (r.type != mac::FrameType::kBeacon) continue;
      const std::uint32_t key = anchor_key(r);
      if (!seen.insert(key).second) continue;
      const auto it = ref.find(key);
      if (it == ref.end()) continue;
      deltas.push_back(r.time_us - it->second);
      if (deltas.size() >= kMaxAnchors || deltas.size() >= ref.size()) break;
    }
    out.anchors[i] = deltas.size();
    if (!deltas.empty()) {
      const auto mid = deltas.begin() +
                       static_cast<std::ptrdiff_t>(deltas.size() / 2);
      std::nth_element(deltas.begin(), mid, deltas.end());
      out.offset_us[i] = *mid;
    }
  }
  return out;
}

class Merger {
 public:
  Merger(std::vector<TraceReader*> inputs, std::vector<std::int64_t> offsets,
         const MergeOptions& options)
      : inputs_(std::move(inputs)), offsets_us_(std::move(offsets)),
        options_(options), head_(inputs_.size()),
        prev_time_(inputs_.size(), std::numeric_limits<std::int64_t>::min()) {
    for (std::size_t i = 0; i < inputs_.size(); ++i) advance(i);
  }

  bool next(CaptureRecord& out) {
    while (!heap_.empty()) {
      const HeapEntry top = heap_.top();
      heap_.pop();
      const CaptureRecord r = head_[top.input];
      advance(top.input);
      while (!emit_order_.empty() &&
             emit_order_.front().second + options_.dup_window_us <
                 top.time_us) {
        const auto& [key, when] = emit_order_.front();
        const auto it = last_emit_.find(key);
        if (it != last_emit_.end() && it->second == when) last_emit_.erase(it);
        emit_order_.pop_front();
      }
      const std::uint64_t key = dedup_key(r);
      const auto it = last_emit_.find(key);
      if (it != last_emit_.end() &&
          top.time_us - it->second <= options_.dup_window_us) {
        it->second = top.time_us;
        emit_order_.emplace_back(key, top.time_us);
        ++stats_.duplicates_dropped;
        continue;
      }
      last_emit_[key] = top.time_us;
      emit_order_.emplace_back(key, top.time_us);
      ++stats_.emitted;
      out = r;
      return true;
    }
    return false;
  }

  [[nodiscard]] const MergeStats& stats() const { return stats_; }

 private:
  struct HeapEntry {
    std::int64_t time_us;
    std::size_t input;
    bool operator>(const HeapEntry& o) const {
      return time_us != o.time_us ? time_us > o.time_us : input > o.input;
    }
  };

  void advance(std::size_t input) {
    CaptureRecord r;
    if (!inputs_[input]->next(r)) return;
    r.time_us -= offsets_us_[input];
    if (r.time_us + kSortSlackUs < prev_time_[input]) {
      throw std::runtime_error("reference merger: input not time-sorted");
    }
    prev_time_[input] = r.time_us;
    head_[input] = r;
    heap_.push({r.time_us, input});
    ++stats_.records_in;
  }

  std::vector<TraceReader*> inputs_;
  std::vector<std::int64_t> offsets_us_;
  MergeOptions options_;
  std::vector<CaptureRecord> head_;
  std::vector<std::int64_t> prev_time_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  MergeStats stats_;
  std::unordered_map<std::uint64_t, std::int64_t> last_emit_;
  std::deque<std::pair<std::uint64_t, std::int64_t>> emit_order_;
};

}  // namespace reference

/// Seeded multi-sniffer captures built to stress every merge rule: 1-4
/// inputs with skewed clocks, a small key space (so equal dedup keys recur
/// both inside and outside the window, exactly at its edge too), equal
/// timestamps within and across inputs, per-input start inversions of up to
/// 10 us, retries, ACK/CTS with and without a source address, and wrapping
/// beacon sequence numbers for the offset estimator.
struct RandomCapture {
  std::vector<Trace> inputs;
  std::vector<std::int64_t> skew_us;  ///< true clock offset per input
};

RandomCapture random_capture(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomCapture c;
  const auto k = static_cast<std::size_t>(rng.uniform_int(1, 4));
  c.inputs.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    c.skew_us.push_back(i == 0 ? 0 : rng.uniform_int(-3000, 3000));
  }
  constexpr mac::FrameType kTypes[] = {
      mac::FrameType::kData, mac::FrameType::kAck, mac::FrameType::kRts,
      mac::FrameType::kCts,  mac::FrameType::kBeacon,
      mac::FrameType::kAssocReq};
  constexpr std::int64_t kGaps[] = {0, 0, 1, 3, 7, 40, 99, 100, 101, 150, 400};
  std::uint16_t beacon_seq[3] = {0, 0, 0};
  const auto frames = rng.uniform_int(50, 1500);
  std::int64_t t = rng.uniform_int(0, 5000);
  CaptureRecord prev;
  for (std::int64_t f = 0; f < frames; ++f) {
    t += kGaps[rng.uniform(std::size(kGaps))];
    CaptureRecord r;
    if (f > 0 && rng.chance(0.2)) {
      r = prev;  // same key again: inside, at, or past the dup window
    } else {
      r.type = kTypes[rng.uniform(std::size(kTypes))];
      r.src = static_cast<mac::Addr>(rng.uniform_int(1, 5));
      r.dst = static_cast<mac::Addr>(rng.uniform_int(1, 4));
      r.bssid = static_cast<mac::Addr>(rng.uniform_int(1, 3));
      r.seq = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
      r.retry = rng.chance(0.2);
      r.channel = rng.chance(0.8) ? 6 : 11;
      r.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(14, 1500));
      if (r.type == mac::FrameType::kAck || r.type == mac::FrameType::kCts) {
        if (rng.chance(0.5)) r.src = mac::kNoAddr;  // as a pcap reload has it
      } else if (r.type == mac::FrameType::kBeacon) {
        r.src = r.bssid;
        r.dst = mac::kBroadcast;
        // Wrapping sequence numbers: anchors repeat.
        r.seq = static_cast<std::uint16_t>(beacon_seq[r.bssid - 1]++ % 48);
      }
    }
    r.frame_id = static_cast<std::uint64_t>(f + 1);
    prev = r;
    for (std::size_t i = 0; i < k; ++i) {
      if (!rng.chance(0.75)) continue;
      CaptureRecord heard = r;
      heard.sniffer_id = static_cast<std::uint8_t>(i);
      heard.snr_db = static_cast<float>(rng.uniform_int(5, 40));
      // Logged at frame end: starts can land up to 10 us late, which
      // inverts neighbours without exceeding the merge's sort slack.
      const std::int64_t jitter = rng.chance(0.5) ? 0 : rng.uniform_int(0, 10);
      heard.time_us = t + jitter + c.skew_us[i];
      c.inputs[i].records.push_back(heard);
    }
  }
  for (Trace& in : c.inputs) {
    if (in.records.empty()) continue;
    in.start_us = in.records.front().time_us;
    in.end_us = in.records.back().time_us;
  }
  return c;
}

std::vector<TraceReader*> pointers(std::vector<VectorReader>& readers) {
  std::vector<TraceReader*> out;
  for (VectorReader& r : readers) out.push_back(&r);
  return out;
}

std::vector<VectorReader> readers_over(const std::vector<Trace>& traces) {
  std::vector<VectorReader> out;
  for (const Trace& t : traces) out.emplace_back(t);
  return out;
}

TEST(MergeDifferentialTest, MergingReaderMatchesReferenceOnRandomCaptures) {
  constexpr std::int64_t kWindows[] = {0, 100, 250};
  MergeStats total;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomCapture c = random_capture(seed);
    MergeOptions options;
    options.dup_window_us = kWindows[seed % std::size(kWindows)];
    // Merge with the true skews and with raw clocks (no correction).
    for (const bool corrected : {true, false}) {
      const std::vector<std::int64_t> offsets =
          corrected ? c.skew_us : std::vector<std::int64_t>(c.skew_us.size());
      auto want_in = readers_over(c.inputs);
      auto got_in = readers_over(c.inputs);
      reference::Merger want(pointers(want_in), offsets, options);
      MergingReader got(pointers(got_in), offsets, options);
      std::vector<CaptureRecord> first_pass;
      CaptureRecord w, g;
      while (want.next(w)) {
        ASSERT_TRUE(got.next(g));
        ASSERT_EQ(g, w) << "record " << first_pass.size();
        first_pass.push_back(g);
      }
      EXPECT_FALSE(got.next(g));
      EXPECT_EQ(got.stats().records_in, want.stats().records_in);
      EXPECT_EQ(got.stats().duplicates_dropped,
                want.stats().duplicates_dropped);
      EXPECT_EQ(got.stats().emitted, want.stats().emitted);
      total.records_in += want.stats().records_in;
      total.duplicates_dropped += want.stats().duplicates_dropped;

      // reset() replays the identical merge.
      got.reset();
      for (const CaptureRecord& expected : first_pass) {
        ASSERT_TRUE(got.next(g));
        ASSERT_EQ(g, expected);
      }
      EXPECT_FALSE(got.next(g));
      EXPECT_EQ(got.stats().emitted, want.stats().emitted);
    }
  }
  // The streams are not vacuous: plenty of records, and both outcomes of
  // the dedup rule.
  EXPECT_GT(total.records_in, 100'000u);
  EXPECT_GT(total.duplicates_dropped, total.records_in / 10);
  EXPECT_LT(total.duplicates_dropped, total.records_in / 2);
}

TEST(MergeDifferentialTest, MergeSnifferTracesMatchesReferencePipeline) {
  for (std::uint64_t seed = 1000; seed < 1300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomCapture c = random_capture(seed);
    auto in = readers_over(c.inputs);
    const ClockOffsets want_offsets =
        reference::estimate_clock_offsets(pointers(in));
    for (VectorReader& r : in) r.reset();
    reference::Merger want(pointers(in), want_offsets.offset_us, {});
    std::vector<CaptureRecord> want_records;
    for (CaptureRecord r; want.next(r);) want_records.push_back(r);

    const MergeResult got = merge_sniffer_traces(c.inputs);
    EXPECT_EQ(got.offsets.offset_us, want_offsets.offset_us);
    EXPECT_EQ(got.offsets.anchors, want_offsets.anchors);
    ASSERT_EQ(got.trace.records, want_records);
    EXPECT_EQ(got.stats.records_in, want.stats().records_in);
    EXPECT_EQ(got.stats.duplicates_dropped, want.stats().duplicates_dropped);
    EXPECT_EQ(got.stats.emitted, want.stats().emitted);
    if (!want_records.empty()) {
      EXPECT_EQ(got.trace.start_us, want_records.front().time_us);
      EXPECT_EQ(got.trace.end_us, want_records.back().time_us);
    }
  }
}

TEST(MergeDifferentialTest, OffsetEstimatorMatchesReferenceAtTheAnchorCap) {
  // More distinct (bssid, seq) anchors than the 8192 cap, then a wrap: the
  // cap, not the first repeat, ends reference collection.
  std::vector<CaptureRecord> a, b;
  std::int64_t t = 0;
  for (int lap = 0; lap < 2; ++lap) {
    for (int bssid = 1; bssid <= 3; ++bssid) {
      for (int seq = 0; seq < 4096; ++seq) {
        t += 97;
        a.push_back(beacon(static_cast<mac::Addr>(bssid),
                           static_cast<std::uint16_t>(seq), t));
        // A few mismatched anchors so the median has something to reject.
        const std::int64_t off = seq % 101 == 0 ? 5000 : 321;
        b.push_back(beacon(static_cast<mac::Addr>(bssid),
                           static_cast<std::uint16_t>(seq), t + off));
      }
    }
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb), wa(ta), wb(tb);
  const ClockOffsets got = estimate_clock_offsets({&ra, &rb});
  const ClockOffsets want = reference::estimate_clock_offsets({&wa, &wb});
  EXPECT_EQ(got.offset_us, want.offset_us);
  EXPECT_EQ(got.anchors, want.anchors);
  EXPECT_EQ(got.anchors[1], 8192u);
  EXPECT_EQ(got.offset_us[1], 321);
}

/// End to end on the simulator: a two-sniffer cell with skewed clocks must
/// recover the configured skew exactly and reassemble a deduplicated trace
/// the analyzer accepts.
TEST(MergeTest, TwoSnifferCellEndToEnd) {
  workload::CellConfig cell;
  cell.seed = 21;
  cell.num_users = 8;
  cell.per_user_pps = 20.0;
  cell.duration_s = 6.0;
  cell.warmup_s = 1.0;
  cell.profile.closed_loop = true;
  cell.num_sniffers = 2;
  cell.sniffer_clock_skew_us = 1500;
  const auto result = workload::run_cell(cell);

  ASSERT_EQ(result.sniffer_traces.size(), 2u);
  ASSERT_EQ(result.clock_offsets.offset_us.size(), 2u);
  // Both sniffers stamp the same frame-start instant, so the recovered
  // offset is the configured skew exactly, not approximately.
  EXPECT_EQ(result.clock_offsets.offset_us[1], 1500);
  EXPECT_GT(result.clock_offsets.anchors[1], 10u);
  EXPECT_GT(result.merge_stats.duplicates_dropped, 100u);

  // The merged capture covers at least what the better sniffer saw alone,
  // and strictly less than the sum (duplicates went away).
  const std::size_t s0 = result.sniffer_traces[0].records.size();
  const std::size_t s1 = result.sniffer_traces[1].records.size();
  const std::size_t merged_full = result.merge_stats.emitted;
  EXPECT_GE(merged_full, std::max(s0, s1));
  EXPECT_LT(merged_full, s0 + s1);

  // And the result is a well-formed analyzable capture.
  const auto analysis = core::TraceAnalyzer{}.analyze(result.trace);
  EXPECT_GT(analysis.total_frames, 0u);
}

}  // namespace
}  // namespace wlan::trace
