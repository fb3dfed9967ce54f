// IviRig: one production IVI system plus the benchmark's track library,
// and the app actions of the mix performed against it.
#pragma once

#include <string>
#include <vector>

#include "harness/scenario.h"
#include "ivi/ivi_system.h"

namespace perfbench {

// The media library: a few hundred tracks, well inside the AVC's 4096
// entries, so steady-state checks hit the cache.
inline constexpr std::uint32_t kTracks = 256;
inline constexpr std::size_t kTrackBytes = 4096;

struct Outcome {
  sack::Errno verdict = sack::Errno::ok;
  bool consistent = true;  // the app saw a well-formed result
};

class IviRig {
 public:
  IviRig();
  IviRig(const IviRig&) = delete;
  IviRig& operator=(const IviRig&) = delete;

  sack::ivi::IviSystem& sys() { return sys_; }
  const std::vector<std::string>& paths() const { return paths_; }

  // Writes the track library (as root, through the syscall layer).
  void populate();
  // Performs one app action and reports what the app saw.
  Outcome perform(const Step& step);

 private:
  sack::ivi::IviSystem sys_;
  std::vector<std::string> paths_;
};

}  // namespace perfbench
