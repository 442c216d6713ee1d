#include "workload/user.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/traffic.hpp"

namespace wlan::workload {
namespace {

sim::NetworkConfig small_net(std::uint64_t seed = 51) {
  sim::NetworkConfig cfg;
  cfg.seed = seed;
  cfg.record_ground_truth = true;
  cfg.channels = {6};
  cfg.propagation.shadowing_sigma_db = 0.0;
  return cfg;
}

UserSpec basic_spec() {
  UserSpec spec;
  spec.position = {8, 8, 0};
  spec.join = Microseconds{0};
  spec.profile = conference_profile();
  spec.profile.mean_pps = 20.0;
  return spec;
}

TEST(UserSessionTest, AssociatesViaHandshake) {
  sim::Network net(small_net());
  net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 99);
  EXPECT_FALSE(user.associated());
  net.run_for(sec(1));
  EXPECT_TRUE(user.associated());
  ASSERT_NE(user.station(), nullptr);
  EXPECT_TRUE(user.station()->active());
}

TEST(UserSessionTest, AssociationVisibleAtAp) {
  sim::Network net(small_net());
  auto& ap = net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 99);
  net.run_for(sec(1));
  EXPECT_EQ(ap.association_count(), 1u);
}

TEST(UserSessionTest, GeneratesTwoWayTraffic) {
  sim::Network net(small_net(53));
  net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(5));
  const auto& gt = net.ground_truth();
  const mac::Addr sta = user.station()->addr();
  bool uplink = false, downlink = false;
  for (const auto& r : gt) {
    if (r.type != mac::FrameType::kData) continue;
    uplink |= r.src == sta;
    downlink |= r.dst == sta;
  }
  EXPECT_TRUE(uplink);
  EXPECT_TRUE(downlink);
}

TEST(UserSessionTest, DepartSendsDisassocAndShutsDown) {
  sim::Network net(small_net(55));
  auto& ap = net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(2));
  ASSERT_TRUE(user.associated());
  user.depart();
  net.run_for(sec(1));
  EXPECT_TRUE(user.departed());
  EXPECT_FALSE(user.station()->active());
  EXPECT_EQ(ap.association_count(), 0u);  // disassoc received
  const auto& gt = net.ground_truth();
  EXPECT_TRUE(std::any_of(gt.begin(), gt.end(), [](const auto& r) {
    return r.type == mac::FrameType::kDisassoc;
  }));
}

TEST(UserSessionTest, NoTrafficAfterDeparture) {
  sim::Network net(small_net(57));
  net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(2));
  user.depart();
  net.run_for(sec(1));
  const mac::Addr sta = user.station()->addr();
  const auto boundary = net.simulator().now() - sec(1) + msec(200);
  for (const auto& r : net.ground_truth()) {
    if (r.src == sta && Microseconds{r.time_us} > boundary) {
      FAIL() << "station transmitted after departure at " << r.time_us;
    }
  }
}

TEST(UserSessionTest, ScheduledLeaveHonoured) {
  sim::Network net(small_net(59));
  net.add_ap({5, 5, 0}, 6);
  UserSpec spec = basic_spec();
  spec.leave = sec(2);
  UserSession user(net, spec, 7);
  net.run_for(sec(3));
  EXPECT_TRUE(user.departed());
}

TEST(UserSessionTest, JoinsWithoutAnyApRetriesGracefully) {
  sim::Network net(small_net(61));
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(3));  // no AP at all: never associates, never crashes
  EXPECT_FALSE(user.associated());
}

TEST(UserManagerTest, PopulationTracksCurve) {
  sim::Network net(small_net(63));
  net.add_ap({5, 5, 0}, 6);
  UserManagerConfig cfg;
  cfg.profile = conference_profile();
  cfg.profile.mean_pps = 2.0;
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 10), rng.uniform_real(0, 10), 0};
  };
  UserManager manager(net, cfg, [](double t) { return t < 5 ? 4.0 : 8.0; },
                      sec(12));
  net.run_for(sec(3));
  EXPECT_EQ(manager.live(), 4u);
  net.run_for(sec(5));
  EXPECT_EQ(manager.live(), 8u);
}

TEST(UserManagerTest, PopulationShrinksOnDecline) {
  sim::Network net(small_net(65));
  net.add_ap({5, 5, 0}, 6);
  UserManagerConfig cfg;
  cfg.profile = conference_profile();
  cfg.profile.mean_pps = 2.0;
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 10), rng.uniform_real(0, 10), 0};
  };
  UserManager manager(net, cfg, [](double t) { return t < 5 ? 6.0 : 2.0; },
                      sec(12));
  net.run_for(sec(4));
  EXPECT_EQ(manager.live(), 6u);
  net.run_for(sec(4));
  EXPECT_EQ(manager.live(), 2u);
  EXPECT_EQ(manager.spawned(), 6u);  // departures, not deletions
}

// The fixed-curve manager parks departed radios: a population decline
// powers them off but every spawned station stays registered with the
// Network — the frozen fixed-curve goldens depend on that.  (Churn
// sessions tear departed radios down for real; churn_test covers that.)
TEST(UserManagerTest, DeparturesParkRadios) {
  const auto curve = [](double t) { return t < 5 ? 6.0 : 2.0; };
  const auto placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 10), rng.uniform_real(0, 10), 0};
  };

  UserManagerConfig parked;
  parked.profile = conference_profile();
  parked.profile.mean_pps = 2.0;
  parked.placement = placement;

  sim::Network net_parked(small_net(69));
  net_parked.add_ap({5, 5, 0}, 6);
  UserManager m_parked(net_parked, parked, curve, sec(12));
  net_parked.run_for(sec(8));
  EXPECT_EQ(m_parked.live(), 2u);
  EXPECT_EQ(m_parked.spawned(), 6u);
  EXPECT_EQ(net_parked.stations().size(), 6u);  // parked, not removed
}

TEST(UserManagerTest, RtsCtsFractionRoughlyHonoured) {
  sim::Network net(small_net(67));
  net.add_ap({25, 25, 0}, 6);
  UserManagerConfig cfg;
  cfg.profile = conference_profile();
  cfg.profile.mean_pps = 1.0;
  cfg.rtscts_fraction = 1.0;  // everyone
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(20, 30), rng.uniform_real(20, 30), 0};
  };
  UserManager manager(net, cfg, [](double) { return 5.0; }, sec(10));
  net.run_for(sec(6));
  // With RTS/CTS universal, RTS frames must appear in the ground truth.
  const auto& gt = net.ground_truth();
  EXPECT_TRUE(std::any_of(gt.begin(), gt.end(), [](const auto& r) {
    return r.type == mac::FrameType::kRts;
  }));
}

}  // namespace
}  // namespace wlan::workload
