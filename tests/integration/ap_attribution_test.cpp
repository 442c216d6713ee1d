// Fig. 4 pinned end to end: fig04's day and plenary sessions (90 s each)
// are simulated, their sniffer captures merged, and every per-AP row of the
// activity ranking (Fig. 4a) plus the unrecorded-frame estimate (Fig. 4c,
// per AP and in total) is folded into one FNV-1a digest.  Any change to how
// frames are attributed to APs or how misses are inferred shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/per_ap.hpp"
#include "core/unrecorded.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

/// FNV-1a over '|'-separated fields.
class Digest {
 public:
  void add(std::uint64_t v) {
    const std::string field = std::to_string(v) + "|";
    for (const char c : field) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// bench_fig04_ap_activity's session setup.
trace::Trace fig04_capture(bool plenary) {
  workload::ScenarioConfig cfg;
  cfg.seed = 62 + (plenary ? 1 : 0);
  cfg.duration_s = 90.0;
  cfg.scale = 0.2;
  cfg.profile.mean_pps *= plenary ? 6.0 : 3.0;
  cfg.profile.window = plenary ? 3 : 1;
  return workload::run_session(cfg, plenary ? workload::SessionKind::kPlenary
                                            : workload::SessionKind::kDay)
      .trace;
}

std::string fig04_digest(const trace::Trace& capture) {
  const auto aps = core::ap_activity(capture);
  const auto unrecorded = core::estimate_unrecorded(capture);
  EXPECT_GT(aps.size(), 1u);
  EXPECT_GT(unrecorded.totals.missed(), 0u);

  Digest d;
  std::uint64_t missed_on_aps = 0;
  for (const auto& ap : aps) {
    missed_on_aps += ap.missed;
    d.add(ap.bssid);
    d.add(ap.frames);
    d.add(ap.data_frames);
    d.add(ap.control_frames);
    d.add(ap.beacons);
    d.add(ap.clients);
    d.add(ap.missed);
    d.add(ap.frames);  // Eq. 1's captured count
  }
  EXPECT_GT(missed_on_aps, 0u);
  d.add(unrecorded.totals.captured);
  d.add(unrecorded.totals.missed_data);
  d.add(unrecorded.totals.missed_rts);
  d.add(unrecorded.totals.missed_cts);
  return d.hex();
}

TEST(ApAttribution, DaySessionFig4Pinned) {
  EXPECT_EQ(fig04_digest(fig04_capture(false)), "d39aef244e93e288");
}

TEST(ApAttribution, PlenarySessionFig4Pinned) {
  EXPECT_EQ(fig04_digest(fig04_capture(true)), "73f7f4b3f2186b71");
}

}  // namespace
}  // namespace wlan
