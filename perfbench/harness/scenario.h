// Seeded workload inputs and the expected-verdict table.
//
// Everything the benchmark feeds the system comes from here, driven by the
// run's --seed: the app-action stream (ActionStream) and the sensor-frame
// stream (FrameStream). The system under test receives only these inputs.
// Each frame carries the situation the default SACK policy must be in after
// it is fed, and every action's result is checked against expected(), a
// table keyed by (situation, action) taken from the shipped default policy
// texts (ivi::default_sack_policy_text / default_apparmor_profiles_text /
// default_sfi_profiles_text).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "harness/stats.h"
#include "sds/sensors.h"
#include "util/errno.h"

namespace perfbench {

// The default SACK policy's situation states.
enum class Situation : std::uint8_t {
  parked_with_driver,
  parked_without_driver,
  driving,
  emergency,
};
inline constexpr std::size_t kSituationCount = 4;
std::string_view situation_name(Situation s);

// The IVI app actions of the mix.
enum class Action : std::uint8_t {
  play_track,     // MediaApp::play_track over the track library
  set_volume,     // MediaApp::set_volume: open, ioctl, close on the audio device
  stat_track,     // the media app stat()s a library track
  rescue_ioctl,   // RescueDaemon::respond_to_emergency: door + window ioctls
  attacker_read,  // KoffeeInjector::read_sensitive("/etc/vehicle/vin")
};
inline constexpr std::size_t kActionCount = 5;
std::string_view action_name(Action a);

// What the production stack must answer, and which module must answer it
// (the first denier under first-deny-wins; empty for an allow).
struct Expectation {
  sack::Errno verdict = sack::Errno::ok;
  std::string_view denier;
};
Expectation expected(Situation s, Action a);

// Whether the mix issues `a` in situation `s`. set_volume is withheld where
// SACK denies the audio device open: the SFI task_syscall gate has already
// advanced the media app's automaton to `at_open` by then, no close
// follows, and every later open by the app becomes a flow violation — the
// app stays wedged after the situation changes back. The benchmark keeps
// its operations failure-free, so it skips those actions (the round runs
// without them) rather than measuring a wedged app.
bool issued(Situation s, Action a);

// One app action with its seeded arguments.
struct Step {
  Action action = Action::play_track;
  std::uint32_t track = 0;  // index into the track library
  long volume = 0;          // set_volume argument, 0..kVolumeMax
};

inline constexpr long kVolumeMax = 30;

// One round of the mix. No IVI trace was measured, so the mix is not
// invented here: it is the repository's one fixed app mix, the round of
// fleet::Vehicle::run_workload (src/fleet/vehicle.cpp), mapped onto the IVI
// apps — the media app reads two files and stats one (play_track x2,
// stat), the OTA helper stages an update and pokes at the VIN (set_volume,
// attacker_read: the KOFFEE injector runs under the ota_helper profile),
// and the rescue daemon acts, allowed only in an emergency (rescue_ioctl).
// The OTA staging write has no IviSystem counterpart; set_volume, the
// IVI's one device write allowed outside an emergency, takes its slot.
inline constexpr std::array<Action, 6> kRound = {
    Action::play_track, Action::play_track,    Action::stat_track,
    Action::set_volume, Action::attacker_read, Action::rescue_ioctl};

// Rounds of the mix, each a seeded order of kRound with seeded arguments.
class ActionStream {
 public:
  ActionStream(std::uint64_t seed, std::uint32_t tracks);
  std::array<Step, kRound.size()> next_round();

 private:
  Rng rng_;
  std::uint32_t tracks_;
};

// One sensor frame and the situation SACK (and SFI) must show once it has
// been fed.
struct FrameStep {
  sack::sds::SensorFrame frame;
  Situation expect = Situation::parked_with_driver;
  bool transition = false;  // expect differs from the situation before it
};

// How a frame stream moves the vehicle.
enum class FrameMode : std::uint8_t {
  // Parked with the driver aboard, frame after frame: the SDS keeps
  // beaconing and its detectors see no change.
  steady,
  // Flip parked <-> driving, with an occasional crash -> emergency ->
  // cleared (the crash detector clears after 30 s of quiet frame time).
  // This schedule is an assumption, not a measured trace: a stress
  // schedule that puts a transition into nearly every frame and visits
  // emergency, the paper's case-study state, in every run.
  storm,
};

class FrameStream {
 public:
  FrameStream(std::uint64_t seed, FrameMode mode);
  FrameStep next();

  // Share of parked/driving frames that crash instead of flipping (part of
  // the assumed storm schedule).
  static constexpr double kCrashShare = 0.15;
  // Frame spacing and the crash detector's quiet period (its default).
  static constexpr std::int64_t kFrameMs = 100;
  static constexpr std::int64_t kClearMs = 30'000;

 private:
  Rng rng_;
  FrameMode mode_;
  Situation situation_ = Situation::parked_with_driver;
  std::int64_t now_ms_ = 0;
  std::int64_t quiet_since_ms_ = -1;  // emergency: first quiet frame time
};

}  // namespace perfbench
