// Tests of the benchmark's own logic: the percentile rule, the
// expected-verdict table (by hand and against the live production stack),
// seeded input determinism, exact repetition of the count metrics, and the
// metric catalog against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/ivi_rig.h"
#include "harness/metrics.h"
#include "harness/scenario.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "util/log.h"

namespace perfbench {
namespace {

using sack::Errno;

class Quiet : public ::testing::Environment {
 public:
  void SetUp() override {
    sack::Logger::instance().set_level(sack::LogLevel::error);
  }
};
const auto* const kQuiet = ::testing::AddGlobalTestEnvironment(new Quiet);

constexpr Situation kSituations[] = {
    Situation::parked_with_driver, Situation::parked_without_driver,
    Situation::driving, Situation::emergency};
constexpr Action kActions[] = {Action::play_track, Action::set_volume,
                               Action::stat_track, Action::rescue_ioctl,
                               Action::attacker_read};

// --- the percentile rule ---

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.50), 50);
  EXPECT_EQ(quantile(v, 0.99), 99);
  EXPECT_EQ(quantile(v, 1.00), 100);
  EXPECT_EQ(quantile(v, 0.00), 1);
  std::vector<double> one{7};
  EXPECT_EQ(quantile(one, 0.99), 7);
  std::vector<double> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(quantile_rank(1000, 0.99), 990u);
  EXPECT_TRUE(tail_reportable(1000, 0.99));
  EXPECT_FALSE(tail_reportable(999, 0.99));
  EXPECT_TRUE(tail_reportable(20, 0.50));
  EXPECT_FALSE(tail_reportable(19, 0.50));
  EXPECT_FALSE(tail_reportable(0, 0.50));
}

TEST(PercentileRule, ReservoirIsExactUnderCapacityAndBoundedOver) {
  Reservoir small(100);
  for (int i = 1; i <= 100; ++i) small.add(i);
  EXPECT_EQ(small.count(), 100u);
  EXPECT_EQ(small.quantile(0.5), 50);

  Reservoir big(1000, 3);
  for (int i = 0; i < 100000; ++i) big.add(i % 1000);
  EXPECT_EQ(big.count(), 100000u);
  EXPECT_NEAR(big.quantile(0.5), 500, 60);
  EXPECT_FALSE(big.tail_reportable(0.999));
  EXPECT_TRUE(big.tail_reportable(0.99));
}

// --- the expected-verdict table ---

TEST(VerdictTable, HandCheckedRows) {
  // AUDIO_CONTROL is granted in parked_with_driver and driving only; the
  // SFI overlay refuses the ioctl while driving.
  EXPECT_EQ(expected(Situation::parked_with_driver, Action::set_volume).verdict,
            Errno::ok);
  const auto driving = expected(Situation::driving, Action::set_volume);
  EXPECT_EQ(driving.verdict, Errno::eacces);
  EXPECT_EQ(driving.denier, "sfi");
  const auto emergency = expected(Situation::emergency, Action::set_volume);
  EXPECT_EQ(emergency.verdict, Errno::eacces);
  EXPECT_EQ(emergency.denier, "sack");
  // Doors: SACK first outside an emergency; inside one SACK allows and the
  // stacked rescue_daemon profile (no /dev/vehicle rule) denies.
  EXPECT_EQ(expected(Situation::parked_with_driver, Action::rescue_ioctl).denier,
            "sack");
  const auto rescue = expected(Situation::emergency, Action::rescue_ioctl);
  EXPECT_EQ(rescue.verdict, Errno::eacces);
  EXPECT_EQ(rescue.denier, "apparmor");
  for (Situation s : kSituations) {
    EXPECT_EQ(expected(s, Action::play_track).verdict, Errno::ok);
    EXPECT_EQ(expected(s, Action::stat_track).verdict, Errno::ok);
    EXPECT_EQ(expected(s, Action::attacker_read).denier, "apparmor");
  }
  EXPECT_FALSE(issued(Situation::emergency, Action::set_volume));
  EXPECT_FALSE(issued(Situation::parked_without_driver, Action::set_volume));
  EXPECT_TRUE(issued(Situation::driving, Action::set_volume));
}

// Moves a fresh production system into `s` through SACK's event path.
void enter(sack::ivi::IviSystem& sys, Situation s) {
  switch (s) {
    case Situation::parked_with_driver: break;
    case Situation::parked_without_driver:
      ASSERT_TRUE(sys.sack()->deliver_event("parked_without_driver").ok());
      break;
    case Situation::driving:
      ASSERT_TRUE(sys.sack()->deliver_event("start_driving").ok());
      break;
    case Situation::emergency:
      ASSERT_TRUE(sys.sack()->deliver_event("crash_detected").ok());
      break;
  }
  ASSERT_EQ(sys.sack()->current_state_name(), situation_name(s));
  ASSERT_EQ(sys.sfi()->current_situation(), situation_name(s));
}

TEST(VerdictTable, MatchesTheLiveProductionStack) {
  for (Situation s : kSituations) {
    for (Action a : kActions) {
      if (!issued(s, a)) continue;
      IviRig rig;
      ASSERT_EQ(check_ivi_production(rig.sys()), "");
      rig.populate();
      enter(rig.sys(), s);
      const Outcome got = rig.perform({a, 3, 12});
      EXPECT_TRUE(got.consistent);
      EXPECT_EQ(got.verdict, expected(s, a).verdict)
          << action_name(a) << " in " << situation_name(s);
    }
  }
}

// Why issued() withholds set_volume where SACK denies the open: the media
// app's flow automaton is left at `at_open` and its next open is refused,
// even once the situation grants everything again. When this test starts
// failing, the stack no longer wedges the app and issued() can go.
TEST(VerdictTable, WithheldSetVolumeWedgesTheMediaApp) {
  IviRig rig;
  rig.populate();
  enter(rig.sys(), Situation::emergency);
  EXPECT_EQ(rig.perform({Action::set_volume, 0, 12}).verdict, Errno::eacces);
  ASSERT_TRUE(rig.sys().sack()->deliver_event("emergency_cleared").ok());
  EXPECT_EQ(rig.perform({Action::play_track, 0, 0}).verdict, Errno::eacces);
}

// --- seeded inputs ---

TEST(Streams, SameSeedSameActionsOtherSeedOtherActions) {
  ActionStream a(42, kTracks), b(42, kTracks), c(43, kTracks);
  bool differs = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = a.next_round(), y = b.next_round(), z = c.next_round();
    std::size_t kinds[kActionCount] = {};
    for (std::size_t j = 0; j < x.size(); ++j) {
      ASSERT_EQ(x[j].action, y[j].action);
      ASSERT_EQ(x[j].track, y[j].track);
      ASSERT_EQ(x[j].volume, y[j].volume);
      differs |= x[j].action != z[j].action || x[j].track != z[j].track;
      ++kinds[static_cast<std::size_t>(x[j].action)];
    }
    // Every round holds the mix exactly: run_workload's proportions.
    std::size_t want[kActionCount] = {};
    for (Action k : kRound) ++want[static_cast<std::size_t>(k)];
    for (std::size_t k = 0; k < kActionCount; ++k)
      ASSERT_EQ(kinds[k], want[k]) << action_name(static_cast<Action>(k));
  }
  EXPECT_TRUE(differs);
}

TEST(Streams, SameSeedSameFrames) {
  FrameStream a(7, FrameMode::storm), b(7, FrameMode::storm);
  std::size_t transitions = 0, emergencies = 0;
  for (int i = 0; i < 2000; ++i) {
    const FrameStep x = a.next(), y = b.next();
    ASSERT_EQ(x.frame.time_ms, y.frame.time_ms);
    ASSERT_EQ(x.frame.speed_kmh, y.frame.speed_kmh);
    ASSERT_EQ(x.frame.crash_signal, y.frame.crash_signal);
    ASSERT_EQ(x.expect, y.expect);
    transitions += x.transition;
    emergencies += x.transition && x.expect == Situation::emergency;
  }
  EXPECT_GT(transitions, 1500u);
  EXPECT_GT(emergencies, 50u);
  FrameStream steady(7, FrameMode::steady);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(steady.next().transition);
}

TEST(Streams, StormFramesReachTheirExpectedSituation) {
  IviRig rig;
  auto& sys = rig.sys();
  FrameStream frames(9, FrameMode::storm);
  for (int i = 0; i < 500; ++i) {
    const FrameStep fs = frames.next();
    (void)sys.sds().feed(fs.frame);
    ASSERT_EQ(sys.sack()->current_state_name(), situation_name(fs.expect))
        << "frame " << i;
    ASSERT_EQ(sys.sfi()->current_situation(), situation_name(fs.expect));
  }
}

// --- exact repetition of the count metrics ---

TEST(Counts, IviCountsRepeatForAFixedSeed) {
  RunOptions o;
  o.workload = "situation_storm";
  o.seed = 5;
  o.seconds = 1;
  o.trace = true;
  const RunResult a = run_ivi(o, FrameMode::storm);
  const RunResult b = run_ivi(o, FrameMode::storm);
  ASSERT_TRUE(a.config_ok) << a.config_error;
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  for (const char* name :
       {"kernel.syscalls_per_action", "lsm.chains_per_syscall",
        "alloc.per_action", "alloc.per_transition", "sds.events_per_frame",
        "sds.writes_per_frame", "lsm.denials.sack", "lsm.denials.apparmor",
        "lsm.denials.sfi"}) {
    ASSERT_TRUE(a.values.count(name)) << name;
    EXPECT_EQ(a.values.at(name), b.values.at(name)) << name;
  }
  std::string error;
  EXPECT_FALSE(result_json(a, true, &error).empty()) << error;
}

TEST(Counts, FleetCountsRepeatForAFixedSeed) {
  RunOptions o;
  o.workload = "fleet_rollout";
  o.seed = 5;
  o.seconds = 1;
  o.trace = true;
  const RunResult a = run_fleet(o);
  const RunResult b = run_fleet(o);
  ASSERT_TRUE(a.config_ok) << a.config_error;
  EXPECT_EQ(a.failed, 0u);
  for (const char* name : {"fleet.pushes_per_rollout", "alloc.per_action",
                           "alloc.per_vehicle_boot",
                           "kernel.syscalls_per_action"}) {
    EXPECT_EQ(a.values.at(name), b.values.at(name)) << name;
  }
  EXPECT_EQ(a.values.at("fleet.pushes_per_rollout"), 1000);
  std::string error;
  EXPECT_FALSE(result_json(a, true, &error).empty()) << error;
}

// --- the catalog against BENCHMARK.json ---

std::vector<std::pair<std::string, std::string>> declared(
    const std::string& json, const std::string& section,
    const std::string& next) {
  const auto begin = json.find("\"" + section + "\"");
  const auto end = next.empty() ? json.size() : json.find("\"" + next + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const std::string body = json.substr(begin, end - begin);
  static const std::regex kMetric(
      R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(body.begin(), body.end(), kMetric), last;
       it != last; ++it)
    out.emplace_back((*it)[1], (*it)[2]);
  return out;
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  auto check = [](std::span<const MetricSpec> catalog,
                  const std::vector<std::pair<std::string, std::string>>&
                      listed) {
    ASSERT_EQ(catalog.size(), listed.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      EXPECT_EQ(catalog[i].name, listed[i].first);
      EXPECT_EQ(catalog[i].unit, listed[i].second) << catalog[i].name;
    }
  };
  check(end_to_end_metrics(), declared(json, "end_to_end", "per_layer"));
  check(per_layer_metrics(), declared(json, "per_layer", ""));
}

}  // namespace
}  // namespace perfbench
