// The benchmark's workloads and the production configuration they run on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/vehicle.h"
#include "harness/metrics.h"
#include "harness/scenario.h"
#include "ivi/ivi_system.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its span file ("" = nowhere).
  std::string trace_dir;
};

// --- the production configuration ---
// The IVI stack as shipped: SACK (independent, DFA rule set) stacked ahead
// of AppArmor, with the SFI flow module behind both and the default SDS
// detectors running.
sack::ivi::IviSystem::Options production_ivi_options();
// "" when `sys` is the production stack with every default policy loaded;
// otherwise what differs.
std::string check_ivi_production(sack::ivi::IviSystem& sys);
// "" when a fleet vehicle runs SACK on the table-driven DFA rule set.
std::string check_vehicle_production(sack::fleet::Vehicle& vehicle);

// ivi_steady (FrameMode::steady) and situation_storm (FrameMode::storm).
RunResult run_ivi(const RunOptions& options, FrameMode mode);
// fleet_rollout.
RunResult run_fleet(const RunOptions& options);

}  // namespace perfbench
