// The production configuration the benchmark runs on, and the startup
// assertion that it really is what runs.
#include <string>
#include <vector>

#include "core/ruleset.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) out += (out.empty() ? "" : ",") + n;
  return out;
}

// "" when `sack` enforces independently on a table-driven DfaRuleSet.
std::string check_sack(const sack::core::SackModule* sack) {
  if (!sack) return "SACK module missing";
  if (sack->mode() != sack::core::SackMode::independent)
    return "SACK is not in independent mode";
  if (!sack->policy_loaded()) return "SACK policy not loaded";
  const auto* dfa =
      dynamic_cast<const sack::core::DfaRuleSet*>(&sack->ruleset());
  if (!dfa) return "SACK rule set is not the DfaRuleSet";
  if (!dfa->table_driven()) return "SACK DfaRuleSet fell back to rule scans";
  return {};
}

}  // namespace

sack::ivi::IviSystem::Options production_ivi_options() {
  sack::ivi::IviSystem::Options options;
  options.mac = sack::ivi::MacConfig::stacked_independent;
  options.load_default_policies = true;
  options.start_sds = true;
  options.enable_sfi = true;
  return options;
}

std::string check_ivi_production(sack::ivi::IviSystem& sys) {
  const std::vector<std::string> want = {"capability", "sack", "apparmor",
                                         "sfi"};
  const auto names = sys.kernel().lsm().module_names();
  if (names != want)
    return "LSM order is " + join(names) + ", want " + join(want);
  if (auto why = check_sack(sys.sack()); !why.empty()) return why;
  if (!sys.apparmor()) return "AppArmor module missing";
  for (const char* profile : {"rescue_daemon", "media_app", "ota_helper"}) {
    if (!sys.apparmor()->find_profile(profile))
      return std::string("default AppArmor profile ") + profile +
             " not loaded";
  }
  if (!sys.sfi()) return "SFI module missing";
  const auto programs = sys.sfi()->programs();
  if (!programs || !programs->find(sack::ivi::MediaApp::kExePath))
    return "default SFI media_app profile not loaded";
  return {};
}

std::string check_vehicle_production(sack::fleet::Vehicle& vehicle) {
  const std::vector<std::string> want = {"capability", "sack"};
  const auto names = vehicle.kernel().lsm().module_names();
  if (names != want)
    return "vehicle LSM order is " + join(names) + ", want " + join(want);
  return check_sack(&vehicle.module());
}

}  // namespace perfbench
