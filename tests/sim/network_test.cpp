#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace/merge.hpp"

namespace wlan::sim {
namespace {

NetworkConfig tri_channel(std::uint64_t seed = 31) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.record_ground_truth = true;
  cfg.propagation.shadowing_sigma_db = 0.0;
  return cfg;
}

TEST(NetworkTest, ChannelLookup) {
  Network net(tri_channel());
  EXPECT_EQ(net.channel(1).number(), 1);
  EXPECT_EQ(net.channel(6).number(), 6);
  EXPECT_EQ(net.channel(11).number(), 11);
  EXPECT_THROW(static_cast<void>(net.channel(3)), std::out_of_range);
}

TEST(NetworkTest, AddressesAreUnique) {
  Network net(tri_channel());
  auto& ap = net.add_ap({0, 0, 0}, 1);
  StationConfig sc;
  sc.position = {1, 1, 0};
  auto& sta = net.add_station(6, sc);
  std::vector<mac::Addr> all{ap.addr(), sta.addr()};
  all.insert(all.end(), ap.vap_addrs().begin(), ap.vap_addrs().end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(NetworkTest, ApGetsRequestedVapCount) {
  Network net(tri_channel());
  EXPECT_EQ(net.add_ap({0, 0, 0}, 1, 4).vap_addrs().size(), 4u);
  EXPECT_EQ(net.add_ap({9, 9, 0}, 6, 2).vap_addrs().size(), 2u);
}

TEST(NetworkTest, ChooseApPicksStrongestSignal) {
  Network net(tri_channel());
  auto& near_ap = net.add_ap({0, 0, 0}, 1);
  net.add_ap({100, 100, 0}, 6);
  const auto choice = net.choose_ap({5, 5, 0});
  EXPECT_EQ(choice.ap, &near_ap);
  EXPECT_EQ(choice.channel, 1);
}

TEST(NetworkTest, ChooseApBalancesVaps) {
  Network net(tri_channel());
  auto& ap = net.add_ap({0, 0, 0}, 1);
  const auto first = net.choose_ap({2, 2, 0});
  EXPECT_EQ(first.ap, &ap);
  // All VAPs empty: any is fine; simulate an association then re-choose.
  // (Association counts only update via AssocReq frames; this checks the
  // bookkeeping path stays consistent when empty.)
  EXPECT_NE(first.vap, mac::kNoAddr);
}

TEST(NetworkTest, ChooseApWithNoApsReturnsNull) {
  Network net(tri_channel());
  EXPECT_EQ(net.choose_ap({0, 0, 0}).ap, nullptr);
}

TEST(NetworkTest, SniffersOnlyHearTheirChannel) {
  Network net(tri_channel(33));
  auto& ap1 = net.add_ap({5, 5, 0}, 1);
  auto& ap6 = net.add_ap({6, 6, 0}, 6);

  SnifferConfig cfg;
  cfg.position = {5, 6, 0};
  cfg.channel = 1;
  cfg.snr_jitter_db = 0;
  auto& sniffer = net.add_sniffer(cfg);

  StationConfig sc;
  sc.position = {7, 7, 0};
  auto& sta1 = net.add_station(1, sc);
  auto& sta6 = net.add_station(6, sc);
  Packet p1;
  p1.dst = ap1.vap_addrs()[0];
  p1.payload = 500;
  p1.bssid = p1.dst;
  sta1.enqueue(p1);
  Packet p6;
  p6.dst = ap6.vap_addrs()[0];
  p6.payload = 500;
  p6.bssid = p6.dst;
  sta6.enqueue(p6);
  net.run_for(msec(100));

  ASSERT_GT(sniffer.records().size(), 0u);
  for (const auto& r : sniffer.records()) EXPECT_EQ(r.channel, 1);
}

TEST(NetworkTest, SnifferMergeDedupsAcrossSniffers) {
  Network net(tri_channel(35));
  auto& ap = net.add_ap({5, 5, 0}, 1);
  // Two sniffers on the same channel hear the same frames.
  for (int i = 0; i < 2; ++i) {
    SnifferConfig cfg;
    cfg.position = {4.0 + i, 5, 0};
    cfg.channel = 1;
    net.add_sniffer(cfg);
  }
  StationConfig sc;
  sc.position = {7, 7, 0};
  auto& sta = net.add_station(1, sc);
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.dst = ap.vap_addrs()[0];
    p.payload = 500;
    p.bssid = p.dst;
    sta.enqueue(p);
  }
  net.run_for(msec(300));

  const auto traces = net.sniffer_traces();
  ASSERT_EQ(traces.size(), 2u);
  // The capture merge keeps each frame once: strictly fewer records than
  // the sum.
  const auto merged = trace::merge_sniffer_traces(traces).trace;
  EXPECT_LT(merged.records.size(),
            traces[0].records.size() + traces[1].records.size());
  // And is time-sorted.
  for (std::size_t i = 1; i < merged.records.size(); ++i) {
    EXPECT_LE(merged.records[i - 1].time_us, merged.records[i].time_us);
  }
}

TEST(NetworkTest, GroundTruthSpansAllChannels) {
  Network net(tri_channel(37));
  net.add_ap({1, 1, 0}, 1).start_beacons();
  net.add_ap({2, 2, 0}, 6).start_beacons();
  net.add_ap({3, 3, 0}, 11).start_beacons();
  net.run_for(msec(500));
  bool saw[3] = {false, false, false};
  for (const auto& r : net.ground_truth()) {
    if (r.channel == 1) saw[0] = true;
    if (r.channel == 6) saw[1] = true;
    if (r.channel == 11) saw[2] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
  EXPECT_TRUE(saw[2]);
}

struct BusyRun {
  std::vector<trace::Trace> captures;
  obs::Metrics metrics;
  std::size_t ground_truth = 0;
  bool wired = false;  ///< every channel had a ground-truth log attached
};

// Three busy channels, one sniffer each, over two run_for calls so the
// per-run_for ground-truth merge runs more than once.  Each channel has a
// near station and one ~100 m out whose frames fail at random, so the
// channel's delivery draws shape the captures.
BusyRun run_busy_channels(bool record_ground_truth) {
  NetworkConfig cfg = tri_channel(43);
  cfg.record_ground_truth = record_ground_truth;
  Network net(cfg);
  for (const std::uint8_t ch : net.channel_numbers()) {
    auto& ap = net.add_ap({5, 5, 0}, ch);
    ap.start_beacons();
    SnifferConfig sniff;
    sniff.position = {6, 6, 0};
    sniff.channel = ch;
    net.add_sniffer(sniff);
    for (const double at : {8.0, 75.0}) {
      StationConfig sc;
      sc.position = {at, at, 0};
      sc.seed = ch + static_cast<std::uint64_t>(at);
      auto& sta = net.add_station(ch, sc);
      for (int i = 0; i < 30; ++i) {
        Packet p;
        p.dst = ap.vap_addrs()[0];
        p.payload = 600;
        p.bssid = p.dst;
        sta.enqueue(p);
      }
    }
  }
  BusyRun run;
  {
    obs::MetricsScope scope(run.metrics);
    net.run_for(msec(400));
    net.run_for(msec(400));
  }
  net.harvest_metrics(run.metrics);
  run.captures = net.sniffer_traces();
  run.wired = true;
  for (const std::uint8_t ch : net.channel_numbers()) {
    run.wired = run.wired && net.channel(ch).records_ground_truth();
  }
  if (record_ground_truth) run.ground_truth = net.ground_truth().size();
  return run;
}

TEST(NetworkTest, GroundTruthIsOptIn) {
  NetworkConfig cfg;
  EXPECT_FALSE(cfg.record_ground_truth);
  cfg.seed = 41;
  Network net(cfg);
  net.add_ap({1, 1, 0}, 1).start_beacons();
  net.run_for(msec(300));
  for (const std::uint8_t ch : net.channel_numbers()) {
    EXPECT_FALSE(net.channel(ch).records_ground_truth());
  }
  EXPECT_THROW(static_cast<void>(net.ground_truth()), std::logic_error);
}

TEST(NetworkTest, GroundTruthHasOneRecordPerEndOfAir) {
  const BusyRun run = run_busy_channels(true);
  EXPECT_TRUE(run.wired);
  ASSERT_GT(run.ground_truth, 0u);
#if WLAN_OBS_ENABLED
  EXPECT_EQ(run.ground_truth, run.metrics.value(obs::Id::kEndOfAirEvents));
#endif
}

TEST(NetworkTest, GroundTruthRecordingIsOutOfBand) {
  const BusyRun on = run_busy_channels(true);
  const BusyRun off = run_busy_channels(false);
  EXPECT_FALSE(off.wired);
  ASSERT_EQ(on.captures.size(), 3u);
  ASSERT_EQ(off.captures.size(), 3u);
  for (std::size_t s = 0; s < on.captures.size(); ++s) {
    ASSERT_FALSE(on.captures[s].records.empty());
    EXPECT_TRUE(on.captures[s].records == off.captures[s].records)
        << "sniffer " << s << " capture diverged";
  }
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const auto id = static_cast<obs::Id>(c);
    EXPECT_EQ(on.metrics.value(id), off.metrics.value(id))
        << "counter " << obs::name(id) << " diverged";
  }
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Network net(tri_channel(39));
    auto& ap = net.add_ap({5, 5, 0}, 6);
    SnifferConfig sniff;
    sniff.position = {5, 5, 0};
    sniff.channel = 6;
    auto& sniffer = net.add_sniffer(sniff);
    StationConfig sc;
    sc.position = {8, 8, 0};
    auto& sta = net.add_station(6, sc);
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.dst = ap.vap_addrs()[0];
      p.payload = 600;
      p.bssid = p.dst;
      sta.enqueue(p);
    }
    net.run_for(sec(1));
    std::vector<std::int64_t> times;
    for (const auto& r : sniffer.records()) times.push_back(r.time_us);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace wlan::sim
