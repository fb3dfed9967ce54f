#include "harness/scenario.h"

#include <utility>

namespace perfbench {

std::string_view situation_name(Situation s) {
  switch (s) {
    case Situation::parked_with_driver: return "parked_with_driver";
    case Situation::parked_without_driver: return "parked_without_driver";
    case Situation::driving: return "driving";
    case Situation::emergency: return "emergency";
  }
  return "?";
}

std::string_view action_name(Action a) {
  switch (a) {
    case Action::play_track: return "play_track";
    case Action::set_volume: return "set_volume";
    case Action::stat_track: return "stat";
    case Action::rescue_ioctl: return "rescue_ioctl";
    case Action::attacker_read: return "attacker_read";
  }
  return "?";
}

namespace {

using sack::Errno;

constexpr Expectation kAllow{Errno::ok, {}};
constexpr Expectation kSack{Errno::eacces, "sack"};
constexpr Expectation kAppArmor{Errno::eacces, "apparmor"};
constexpr Expectation kSfi{Errno::eacces, "sfi"};

// Rows: Action; columns: Situation (parked_with_driver,
// parked_without_driver, driving, emergency). Sources, first denier first:
//  * play_track / stat: SACK's MEDIA_READ (`allow * /var/media/** read
//    getattr`) is granted in every state, AppArmor's media_app profile
//    grants `/var/media/** r`, and the SFI media profile admits
//    open -> read* -> close and stat from any state.
//  * set_volume: SACK grants AUDIO_CONTROL only in parked_with_driver and
//    driving; while driving the SFI overlay (`situation driving { deny
//    sys_ioctl; }`) refuses the ioctl after SACK and AppArmor allow it.
//  * rescue_ioctl: SACK grants CONTROL_CAR_DOORS/WINDOWS only in emergency;
//    there SACK allows, but the stacked AppArmor rescue_daemon profile
//    grants no /dev/vehicle/* rule, so AppArmor denies. (Only SACK-enhanced
//    AppArmor injects the door rules into that profile.)
//  * attacker_read: no SACK rule guards /etc/vehicle/vin, and the
//    ota_helper profile grants only /var/ota/**, so AppArmor denies it in
//    every state.
constexpr std::array<std::array<Expectation, kSituationCount>, kActionCount>
    kTable = {{
        {kAllow, kAllow, kAllow, kAllow},          // play_track
        {kAllow, kSack, kSfi, kSack},              // set_volume
        {kAllow, kAllow, kAllow, kAllow},          // stat
        {kSack, kSack, kSack, kAppArmor},          // rescue_ioctl
        {kAppArmor, kAppArmor, kAppArmor, kAppArmor},  // attacker_read
    }};

}  // namespace

Expectation expected(Situation s, Action a) {
  return kTable[static_cast<std::size_t>(a)][static_cast<std::size_t>(s)];
}

bool issued(Situation s, Action a) {
  return !(a == Action::set_volume && expected(s, a).denier == "sack");
}

ActionStream::ActionStream(std::uint64_t seed, std::uint32_t tracks)
    : rng_(seed ^ 0xac710aULL), tracks_(tracks) {}

std::array<Step, kRound.size()> ActionStream::next_round() {
  std::array<Step, kRound.size()> round;
  for (std::size_t i = 0; i < round.size(); ++i) {
    round[i].action = kRound[i];
    round[i].track = static_cast<std::uint32_t>(rng_.below(tracks_));
    round[i].volume = static_cast<long>(rng_.below(kVolumeMax + 1));
  }
  for (std::size_t i = round.size(); i > 1; --i)
    std::swap(round[i - 1], round[rng_.below(i)]);
  return round;
}

FrameStream::FrameStream(std::uint64_t seed, FrameMode mode)
    : rng_(seed ^ 0xf4a3e5ULL), mode_(mode) {}

FrameStep FrameStream::next() {
  using sack::sds::Gear;
  now_ms_ += kFrameMs;
  FrameStep out;
  auto& f = out.frame;
  f.time_ms = now_ms_;
  f.driver_present = true;
  f.gear = Gear::park;
  const Situation before = situation_;

  if (mode_ == FrameMode::steady) {
    out.expect = situation_;
    return out;
  }

  switch (situation_) {
    case Situation::parked_with_driver:
    case Situation::driving: {
      const bool driving = situation_ == Situation::driving;
      if (rng_.unit() < kCrashShare) {
        f.crash_signal = true;
        f.accel_g = 6.0;
        if (driving) {
          f.gear = Gear::drive;
          f.speed_kmh = 20.0 + static_cast<double>(rng_.below(30));
        }
        situation_ = Situation::emergency;
        quiet_since_ms_ = -1;
      } else if (driving) {
        situation_ = Situation::parked_with_driver;  // park: standstill
      } else {
        f.gear = Gear::drive;
        f.speed_kmh = 20.0 + static_cast<double>(rng_.below(30));
        situation_ = Situation::driving;
      }
      break;
    }
    case Situation::emergency:
      // Quiet standstill frames: the first starts the crash detector's
      // quiet period, the next (kClearMs later) clears the emergency.
      if (quiet_since_ms_ < 0) {
        quiet_since_ms_ = now_ms_;
      } else {
        now_ms_ = quiet_since_ms_ + kClearMs;
        f.time_ms = now_ms_;
        situation_ = Situation::parked_with_driver;
      }
      break;
    case Situation::parked_without_driver:
      break;  // never entered: every frame carries the driver
  }
  out.expect = situation_;
  out.transition = situation_ != before;
  return out;
}

}  // namespace perfbench
