#include "core/streaming.hpp"

#include <algorithm>
#include <stdexcept>

namespace wlan::core {

namespace {

/// Keep finalized-second utilizations this far behind the finalization
/// front (sink mode): acceptance samples can lag their second by at most
/// the one-record lookahead plus the ±10 us capture tolerance, so a margin
/// of several seconds is already far beyond any reachable lag.
constexpr std::size_t kUtilizationTail = 8;

/// Key for the pending-acceptance map: sender address + sequence number.
constexpr std::uint32_t pending_key(mac::Addr src, std::uint16_t seq) {
  return (static_cast<std::uint32_t>(src) << 16) | seq;
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(AnalyzerConfig config, AnalysisSink* sink)
    : config_(config), sink_(sink) {}

void StreamingAnalyzer::set_bounds(std::int64_t start_us, std::int64_t end_us) {
  have_bounds_ = true;
  bound_start_us_ = start_us;
  bound_end_us_ = end_us;
}

SecondStats& StreamingAnalyzer::second_at(std::size_t sec_idx,
                                          std::int64_t now_us) {
  while (base_second_ + open_seconds_.size() <= sec_idx) {
    SecondStats s;
    s.second = static_cast<std::int64_t>(base_second_ + open_seconds_.size());
    open_seconds_.push_back(s);
    // Keep the deque O(1) across capture gaps: a multi-hour silence must
    // stream its empty seconds through the sink, not materialize them.
    if (sink_) emit_final_seconds(now_us);
  }
  return open_seconds_[sec_idx - base_second_];
}

void StreamingAnalyzer::emit_second(SecondStats& s) {
  if (sink_) {
    sink_->on_second(s);
    final_utilization_.emplace_back(s.second, s.utilization());
    while (final_utilization_.size() > 1 &&
           final_utilization_.front().first +
               static_cast<std::int64_t>(kUtilizationTail) <
               static_cast<std::int64_t>(base_second_)) {
      final_utilization_.pop_front();
    }
  } else {
    result_.seconds.push_back(s);
  }
}

void StreamingAnalyzer::emit_final_seconds(std::int64_t now_us) {
  if (!sink_) return;  // collecting mode keeps seconds until finish()
  while (!open_seconds_.empty() &&
         start_us_ +
                 static_cast<std::int64_t>(base_second_ + 1) * 1'000'000 <=
             now_us - 10) {
    emit_second(open_seconds_.front());
    open_seconds_.pop_front();
    ++base_second_;
  }
  flush_ready_acceptance();
}

void StreamingAnalyzer::flush_ready_acceptance() {
  while (!pending_acceptance_.empty() &&
         pending_acceptance_.front().second <
             static_cast<std::int64_t>(base_second_)) {
    const AcceptanceSample sample = pending_acceptance_.front();
    pending_acceptance_.pop_front();
    for (const auto& [second, utilization] : final_utilization_) {
      if (second == sample.second) {
        sink_->on_acceptance(sample, utilization);
        break;
      }
    }
  }
}

void StreamingAnalyzer::push(const trace::CaptureRecord& r) {
  if (!started_) {
    started_ = true;
    start_us_ = have_bounds_ && bound_start_us_ <= r.time_us ? bound_start_us_
                                                             : r.time_us;
    result_.start_us = start_us_;
    prev_time_ = start_us_;
  }
  if (held_) {
    const trace::CaptureRecord prev = *held_;
    held_ = r;
    process(prev, &*held_);
  } else {
    held_ = r;
  }
}

AnalysisResult StreamingAnalyzer::finish() {
  if (held_) {
    const trace::CaptureRecord last = *held_;
    held_.reset();
    process(last, nullptr);
  }
  if (!started_) return std::move(result_);

  const std::int64_t target_end =
      have_bounds_ && bound_end_us_ >= last_record_us_ ? bound_end_us_
                                                       : last_record_us_;
  const auto num_seconds =
      static_cast<std::size_t>((target_end - start_us_) / 1'000'000 + 1);
  if (sink_) {
    while (!open_seconds_.empty()) {
      emit_second(open_seconds_.front());
      open_seconds_.pop_front();
      ++base_second_;
    }
    // Every sample's second is final now; flush before the padding below
    // can prune those seconds' utilizations out of the lookup tail.
    flush_ready_acceptance();
    // Session-bound padding streams straight through, never materialized.
    while (base_second_ < num_seconds) {
      SecondStats s;
      s.second = static_cast<std::int64_t>(base_second_);
      emit_second(s);
      ++base_second_;
    }
  } else {
    if (num_seconds > open_seconds_.size()) {
      second_at(num_seconds - 1, last_record_us_);
    }
    result_.seconds.reserve(open_seconds_.size());
    for (SecondStats& s : open_seconds_) result_.seconds.push_back(s);
    open_seconds_.clear();
  }
  return std::move(result_);
}

void StreamingAnalyzer::process(const trace::CaptureRecord& r,
                                const trace::CaptureRecord* next) {
  if (r.time_us + 10 < prev_time_) {
    throw std::invalid_argument(
        "TraceAnalyzer: records not time-sorted; merge traces first");
  }
  prev_time_ = r.time_us;
  last_record_us_ = r.time_us;

  // Sweep expired pending-ACK entries (~once per capture second).  This is
  // behavior-neutral: an expired entry's next touch resets it regardless of
  // path taken below, so dropping it early changes no analysis output —
  // it only keeps the map O(in-flight exchanges) on unbounded captures.
  if (r.time_us - last_prune_us_ >= 1'000'000) {
    last_prune_us_ = r.time_us;
    const std::int64_t expiry = config_.pending_expiry.count();
    std::erase_if(pending_, [&](const auto& kv) {
      return r.time_us - kv.second.first_tx_us > expiry;
    });
  }

  const auto sec_idx =
      static_cast<std::size_t>((r.time_us - start_us_) / 1'000'000);
  SecondStats& s = second_at(sec_idx, r.time_us);

  // --- Busy time (Eqs. 2-7) and byte/bit volumes -----------------------
  const double cbt_us = static_cast<double>(config_.delays.cbt(r).count());
  s.cbt_us += cbt_us;
  s.cbt_us_by_rate[phy::rate_index(r.rate)] += cbt_us;
  s.bits_all += static_cast<std::uint64_t>(r.size_bytes) * 8;
  s.bytes_by_rate[phy::rate_index(r.rate)] += r.size_bytes;

  ++result_.total_frames;

  // --- Per-type bookkeeping --------------------------------------------
  switch (r.type) {
    case mac::FrameType::kRts: {
      ++s.rts;
      ++result_.total_rts;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      auto& sender = result_.senders[r.src];
      ++sender.rts_tx;
      sender.uses_rtscts = true;
      break;
    }
    case mac::FrameType::kCts:
      ++s.cts;
      ++result_.total_cts;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      break;
    case mac::FrameType::kAck:
      ++s.ack;
      ++result_.total_acks;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      break;
    case mac::FrameType::kBeacon:
      ++s.beacon;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      break;
    default:
      break;
  }

  if (r.type != mac::FrameType::kData) {
    if (mac::is_data_like(r.type)) ++s.mgmt;
    emit_final_seconds(r.time_us);
    return;
  }

  ++s.data;
  ++result_.total_data;
  const SizeClass cls = size_class(r.size_bytes);
  ++s.tx_by_category[category_index(cls, r.rate)];
  if (r.retry) ++s.retries_by_rate[phy::rate_index(r.rate)];
  ++result_.senders[r.src].data_tx;

  // --- DATA->ACK atomicity: was this frame acknowledged? ---------------
  // The ACK must be the next capture, addressed to this frame's sender,
  // within SIFS + D_ACK + slack of the data frame's end.
  const std::int64_t data_end =
      r.time_us +
      config_.delays.data_duration_total(r.size_bytes, r.rate).count();
  bool acked = false;
  if (next != nullptr) {
    acked = next->type == mac::FrameType::kAck && next->dst == r.src &&
            next->time_us <= data_end + config_.ack_match_slack.count();
  }

  const std::uint32_t key = pending_key(r.src, r.seq);
  const std::size_t cat = category_index(size_class(r.size_bytes), r.rate);
  auto it = pending_.find(key);
  if (it == pending_.end() || !r.retry) {
    // First attempt (or we never saw the first attempt: approximate with
    // this one, as the authors must have).
    it = pending_.insert_or_assign(key, Pending{r.time_us, cat}).first;
  } else if (r.time_us - it->second.first_tx_us >
             config_.pending_expiry.count()) {
    it->second = Pending{r.time_us, cat};  // stale (seq wrapped)
  }

  if (acked) {
    const trace::CaptureRecord& ack_rec = *next;
    s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
    ++s.acked_by_rate[phy::rate_index(r.rate)];
    if (!r.retry) ++s.first_attempt_acked[phy::rate_index(r.rate)];
    ++result_.senders[r.src].data_acked;

    AcceptanceSample sample;
    sample.second = (ack_rec.time_us - start_us_) / 1'000'000;
    sample.category = cat;
    sample.delay_us =
        static_cast<double>(ack_rec.time_us - it->second.first_tx_us);
    if (sink_) {
      pending_acceptance_.push_back(sample);
    } else {
      result_.acceptance.push_back(sample);
    }
    pending_.erase(it);
  }
  emit_final_seconds(r.time_us);
}

}  // namespace wlan::core
