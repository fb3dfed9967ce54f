// fleet_rollout: 1000 production vehicles on one shard. Boot, then repeated
// cycles of an aggregate check pass (Vehicle::run_workload on every vehicle)
// and two rollouts through the verify- and health-gated controller: a
// benign revision that must commit, and fleet_policy_bad, which the health
// gate must roll back.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/policy_checker.h"
#include "core/policy_parser.h"
#include "core/ruleset.h"
#include "fleet/rollout.h"
#include "fuzz/oracle.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "kernel/process.h"
#include "verify/verifier.h"

namespace perfbench {

namespace {

using namespace sack::fleet;
using Tag = SpanRecorder::RequestTag;

constexpr std::size_t kVehicles = 1000;
// A timed run is cut into kSegments segments, each on a freshly booted
// fleet, with a batch of kBootsPerBatch timed boots before each segment and
// after the last one.
constexpr std::size_t kSegments = 4;
constexpr std::size_t kBootsPerBatch = 3;
// Workload rounds per vehicle probe in the check pass: the size of the
// health probe the rollout controller issues itself (RolloutConfig's
// default health_rounds).
const std::size_t kProbeRounds = RolloutConfig{}.health_rounds;
// Vehicle::run_workload issues 6 checks a round; in `parked` under the
// v1/v2 policies the OTA and rescue reads of the VIN are the 2 denials.
constexpr std::uint64_t kChecksPerRound = 6;
constexpr std::uint64_t kDenialsPerRound = 2;
constexpr std::size_t kMismatchesReported = 5;
// Cycles between two CPU re-selections (pin_to_fastest_cpu).
constexpr std::size_t kCyclesPerRepin = 8;
constexpr std::string_view kPolicyLoadPath =
    "/sys/kernel/security/SACK/policy/load";

FleetConfig fleet_config() {
  FleetConfig fc;
  fc.vehicles = kVehicles;
  fc.shards = 1;  // per-vehicle cost, not the host's scheduler
  fc.start_sds = false;
  return fc;
}

RolloutConfig rollout_config() {
  RolloutConfig rc;
  rc.verify_gate = true;
  rc.run_oracle = false;
  return rc;
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

struct Checker {
  RunResult& r;
  std::size_t reported = 0;
  void expect(bool ok, const std::string& what) {
    ++r.attempted;
    if (ok) return;
    ++r.failed;
    if (reported++ < kMismatchesReported) r.line("MISMATCH " + what);
  }
};

// "" when every vehicle is a production vehicle.
std::string check_fleet(Fleet& fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto why = check_vehicle_production(fleet.vehicle(i));
    if (!why.empty()) return "vehicle " + std::to_string(i) + ": " + why;
  }
  return {};
}

PolicyVersion must_version(std::uint64_t version, std::string text) {
  auto pv = make_policy_version(version, std::move(text));
  if (!pv.ok()) {
    std::fprintf(stderr, "perfbench: a shipped fleet policy failed to parse\n");
    std::exit(3);
  }
  return std::move(pv).value();
}

// The benign candidates alternate between the two revisions whose verdicts
// on the probe workload are identical, so every cycle ships a real change.
class Candidates {
 public:
  explicit Candidates(std::uint64_t seed) : v2_next_(seed % 2 == 0) {}
  PolicyVersion benign() {
    const bool v2 = v2_next_;
    v2_next_ = !v2_next_;
    return must_version(next_++, v2 ? fleet_policy_v2() : fleet_policy_v1());
  }
  PolicyVersion bad() { return must_version(next_++, fleet_policy_bad()); }

 private:
  bool v2_next_;
  std::uint64_t next_ = 2;
};

struct CheckPass {
  std::uint64_t checks = 0;
  std::uint64_t ns = 0;
  std::uint64_t probes = 0;
};

// One probe per vehicle, in the seeded visiting order.
CheckPass check_pass(Fleet& fleet, const std::vector<std::size_t>& order,
                     Reservoir* probe_us, Checker& check) {
  CheckPass pass;
  const std::uint64_t start = now_ns();
  for (std::size_t idx : order) {
    const std::uint64_t t0 = now_ns();
    const auto stats = fleet.vehicle(idx).run_workload(kProbeRounds);
    const std::uint64_t t1 = now_ns();
    if (probe_us) probe_us->add(static_cast<double>(t1 - t0) / 1e3);
    pass.checks += stats.checks;
    ++pass.probes;
    check.expect(stats.checks == kChecksPerRound * kProbeRounds &&
                     stats.denials == kDenialsPerRound * kProbeRounds,
                 "vehicle " + std::to_string(idx) + " probe: " +
                     std::to_string(stats.denials) + " denials in " +
                     std::to_string(stats.checks) + " checks");
  }
  pass.ns = now_ns() - start;
  return pass;
}

RolloutReport benign_rollout(RolloutController& controller, Fleet& fleet,
                             PolicyVersion candidate, Checker& check) {
  const std::uint64_t version = candidate.version;
  auto rep = controller.roll_out(std::move(candidate));
  check.expect(rep.outcome == RolloutOutcome::committed &&
                   rep.fully_converged && rep.mixed_version_vehicles == 0 &&
                   fleet.converged_on(version),
               "benign rollout v" + std::to_string(version) + ": " +
                   rep.to_json());
  return rep;
}

RolloutReport bad_rollout(RolloutController& controller, Fleet& fleet,
                          PolicyVersion candidate, Checker& check) {
  const std::uint64_t restored = controller.current()->version;
  auto rep = controller.roll_out(std::move(candidate));
  check.expect(rep.outcome == RolloutOutcome::rolled_back &&
                   rep.fully_converged && rep.mixed_version_vehicles == 0 &&
                   rep.equivalence_mismatches == 0 &&
                   fleet.converged_on(restored),
               "bad rollout: " + rep.to_json());
  return rep;
}

std::vector<std::size_t> visit_order(std::uint64_t seed) {
  std::vector<std::size_t> order(kVehicles);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed ^ 0xf1ee7ULL);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

RunResult run_timed(const RunOptions& o) {
  RunResult r;
  Checker check{r};
  const PolicyVersion v1 = must_version(1, fleet_policy_v1());
  // setup_s times a fleet boot, with one fleet alive at a time. Each
  // batch's last fleet runs the next segment's cycles under a fresh
  // controller. setup_s is the median of the quietest batch (best_time over
  // the batch medians), chosen like the best passes and cycles.
  std::vector<double> batch_medians;
  std::unique_ptr<Fleet> fleet;
  auto boot = [&]() {
    std::vector<double> times;
    for (std::size_t k = 0; k < kBootsPerBatch; ++k) {
      fleet.reset();
      const std::uint64_t t0 = now_ns();
      fleet = std::make_unique<Fleet>(fleet_config(), v1);
      times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (auto why = check_fleet(*fleet); !why.empty()) {
        r.config_ok = false;
        r.config_error = why;
        return false;
      }
    }
    batch_medians.push_back(median(std::move(times)));
    return true;
  };

  const auto order = visit_order(o.seed);
  // Each check pass probes every vehicle once (kVehicles samples, enough
  // for its own p99). The run reports its best passes and cycles
  // (best_time / best_rate), so a stretch of host contention drops out;
  // the medians are printed beside them.
  Reservoir probe_us(kVehicles, o.seed);
  std::vector<double> pass_checks_per_s, pass_p50, pass_p90, pass_p99;
  std::vector<double> rollout_s;
  std::vector<double> rollback_ms;
  CheckPass total;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    (void)pin_to_fastest_cpu();  // follows the host's load; not timed
    if (!boot()) return r;
    RolloutController controller(*fleet, rollout_config());
    Candidates candidates(o.seed + seg);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(
                       o.seconds / static_cast<double>(kSegments) * 1e9);
    do {
      if (rollout_s.size() % kCyclesPerRepin == 0) (void)pin_to_fastest_cpu();
      probe_us.clear();
      const CheckPass pass = check_pass(*fleet, order, &probe_us, check);
      pass_checks_per_s.push_back(static_cast<double>(pass.checks) * 1e9 /
                                  static_cast<double>(pass.ns));
      pass_p50.push_back(probe_us.quantile(0.50));
      pass_p90.push_back(probe_us.quantile(0.90));
      pass_p99.push_back(probe_us.quantile(0.99));
      total.checks += pass.checks;
      total.ns += pass.ns;
      total.probes += pass.probes;
      rollout_s.push_back(
          static_cast<double>(
              benign_rollout(controller, *fleet, candidates.benign(), check)
                  .convergence_ns) /
          1e9);
      rollback_ms.push_back(
          static_cast<double>(
              bad_rollout(controller, *fleet, candidates.bad(), check)
                  .rollback_ns) /
          1e6);
    } while (now_ns() < deadline);
  }
  const double rss = static_cast<double>(peak_rss_kib()) / 1024.0;
  if (!boot()) return r;
  fleet.reset();

  const double checks_per_s = best_rate(pass_checks_per_s);
  const double p50 = best_time(pass_p50);
  const double p90 = best_time(pass_p90);
  const double p99 = best_time(pass_p99);
  if (!tail_reportable(kVehicles, 0.99)) {
    r.line("too few vehicle probes per pass for a p99");
    ++r.failed;
  }
  const double rollout = best_time(rollout_s);
  const double rollback = best_time(rollback_ms);
  const double setup = best_time(batch_medians);
  r.set("ops_per_s_best5", checks_per_s);
  r.set("batch_us_p50_best5", p50);
  r.set("control_us_best5", rollout * 1e6);
  r.set("setup_s", setup);
  r.set("peak_rss_mb", rss);

  r.line(fmt("stack: %.0f vehicles (sack on DfaRuleSet), 1 shard, verify "
             "gate on, oracle off",
             static_cast<double>(kVehicles)));
  r.line("figures are the best 5% of check passes and of rollout cycles "
         "unless marked median");
  r.line(fmt("fleet_checks_per_s %.1f checks/s over %.0f check passes "
             "(%.0f checks in all)",
             checks_per_s, static_cast<double>(pass_checks_per_s.size()),
             static_cast<double>(total.checks)));
  r.line(fmt("probe_latency_us_p50 %.4f us  p90 %.4f us  p99 %.4f us", p50,
             p90, p99));
  r.line(fmt("(n=%.0f probes)", static_cast<double>(total.probes)));
  r.line(fmt("rollout_s %.6f s  rollback_ms %.6f ms (%.0f cycles)",
             rollout, rollback, static_cast<double>(rollout_s.size())));
  r.line(fmt("median: fleet_checks_per_s %.1f  probe_latency_us_p50 %.4f us  "
             "rollout_s %.6f s",
             median(pass_checks_per_s), median(pass_p50), median(rollout_s)));
  r.line(fmt("setup_s %.6f s (quietest of %.0f batches of %.0f boots)",
             setup, static_cast<double>(batch_medians.size()),
             static_cast<double>(kBootsPerBatch)));
  r.line(fmt("median boot batch %.6f s  peak_rss_mb %.2f MiB",
             median(batch_medians), rss));
  return r;
}

template <typename Fn>
double median_ms(std::size_t n, Fn&& fn) {
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t0 = now_ns();
    fn(i);
    v.push_back(ms_since(t0));
  }
  return median(std::move(v));
}

// Per-call timings of the control plane's parts: policy parse, check, DFA
// build, the SACKfs load, the verify gate, vehicle boot, push and probe.
void time_control_plane(RunResult& r, Fleet& fleet, Checker& check) {
  const PolicyVersion v1 = must_version(1, fleet_policy_v1());
  const PolicyVersion v2 = must_version(2, fleet_policy_v2());
  unsigned sink = 0;

  r.set("core.policy_parse_ms", median_ms(20, [&](std::size_t) {
          sink += sack::core::parse_policy(v2.text).ok() ? 1u : 0u;
        }));
  r.set("core.policy_check_ms", median_ms(20, [&](std::size_t) {
          sink += static_cast<unsigned>(
              sack::core::check_policy(v2.policy,
                                       sack::core::CheckMode::independent)
                  .size());
        }));
  r.set("core.policy_dfa_build_ms", median_ms(20, [&](std::size_t) {
          sack::core::DfaRuleSet rules;
          sink += rules.load(v2.policy).ok() ? 1u : 0u;
        }));
  Vehicle& v0 = fleet.vehicle(0);
  sack::kernel::Process admin(v0.kernel(), v0.kernel().init_task());
  // An even count leaves vehicle 0 on v1, the version it is live on.
  r.set("core.policy_load_ms", median_ms(20, [&](std::size_t i) {
          check.expect(admin.write_existing(kPolicyLoadPath,
                                            i % 2 ? v1.text : v2.text)
                           .ok(),
                       "SACKfs policy/load write");
        }));
  sack::verify::VerifyOptions gate;
  gate.run_oracle = false;
  r.set("verify.gate_ms", median_ms(10, [&](std::size_t) {
          sink += sack::verify::verify_policy(v2.policy, gate, "fleet-v2")
                          .has_errors()
                      ? 1u
                      : 0u;
        }));

  // Push v2 to 100 vehicles, then put them back on v1 (untimed).
  r.set("fleet.apply_policy_ms", median_ms(100, [&](std::size_t i) {
          check.expect(fleet.vehicle(i).apply_policy(v2).ok(),
                       "Vehicle::apply_policy");
        }));
  for (std::size_t i = 0; i < 100; ++i)
    check.expect(fleet.vehicle(i).apply_policy(v1).ok(),
                 "Vehicle::apply_policy back to v1");
  const std::size_t health_rounds = rollout_config().health_rounds;
  r.set("fleet.health_probe_ms", median_ms(200, [&](std::size_t i) {
          sink += static_cast<unsigned>(
              fleet.vehicle(i).run_workload(health_rounds).checks);
        }));

  // Direct vehicle boots, with the allocation counter on.
  std::vector<double> boot_ms;
  std::uint64_t allocs = 0;
  constexpr std::size_t kDirectBoots = 20;
  for (std::size_t k = 0; k < kDirectBoots; ++k) {
    VehicleConfig vc;
    vc.id = static_cast<std::uint32_t>(kVehicles + k);
    vc.start_sds = false;
    PolicyVersion initial = v1;
    alloc::set_counting(true);
    const std::uint64_t a0 = alloc::count();
    const std::uint64_t t0 = now_ns();
    auto vehicle = std::make_unique<Vehicle>(vc, std::move(initial));
    boot_ms.push_back(ms_since(t0));
    allocs += alloc::count() - a0;
    alloc::set_counting(false);
  }
  r.set("fleet.vehicle_boot_ms", median(boot_ms));
  r.set("alloc.per_vehicle_boot", static_cast<double>(allocs) /
                                      static_cast<double>(kDirectBoots));

  // The rule-set walk on the probe's own queries.
  auto& mod = v0.module();
  const std::string media(Vehicle::kMediaExe);
  const std::string ota(Vehicle::kOtaExe);
  const std::vector<sack::core::AccessQuery> queries = {
      {media, {}, Vehicle::kDataFiles[0], sack::core::MacOp::read},
      {media, {}, Vehicle::kDataFiles[1], sack::core::MacOp::read},
      {ota, {}, Vehicle::kDataFiles[3], sack::core::MacOp::write},
      {ota, {}, Vehicle::kDataFiles[2], sack::core::MacOp::read},
  };
  r.set("core.dfa_check_ns_p50",
        median(time_calls(2000, 64, [&](std::size_t i) {
          sink += static_cast<unsigned>(
              mod.ruleset().check(queries[i % queries.size()]));
        })));
  if (sink == 0xdeadbeef) r.line("");  // keeps the timed calls observable
}

RunResult run_traced(const RunOptions& o) {
  RunResult r;
  Checker check{r};
  // Declared first: the sentinels installed below report to it until the
  // fleet's kernels are gone.
  SpanRecorder rec;
  const PolicyVersion v1 = must_version(1, fleet_policy_v1());
  const std::uint64_t rss0 = current_rss_kib();
  Fleet fleet(fleet_config(), v1);
  const std::uint64_t rss1 = current_rss_kib();
  if (auto why = check_fleet(fleet); !why.empty()) {
    r.config_ok = false;
    r.config_error = why;
    return r;
  }
  r.set("fleet.rss_kb_per_vehicle",
        static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
            static_cast<double>(kVehicles));

  const auto order = visit_order(o.seed);
  // Check pass: throughput, AVC hit ratio, syscalls, allocations per probe.
  std::uint64_t hits0 = 0, misses0 = 0, sys0 = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto s = fleet.vehicle(i).module().avc().stats();
    hits0 += s.hits;
    misses0 += s.misses;
    sys0 += fleet.vehicle(i).kernel().syscall_count();
  }
  alloc::set_counting(true);
  const std::uint64_t a0 = alloc::count();
  const CheckPass pass = check_pass(fleet, order, nullptr, check);
  const std::uint64_t probe_allocs = alloc::count() - a0;
  alloc::set_counting(false);
  std::uint64_t hits1 = 0, misses1 = 0, sys1 = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto s = fleet.vehicle(i).module().avc().stats();
    hits1 += s.hits;
    misses1 += s.misses;
    sys1 += fleet.vehicle(i).kernel().syscall_count();
  }
  const double hits = static_cast<double>(hits1 - hits0);
  const double lookups = hits + static_cast<double>(misses1 - misses0);
  r.set("core.avc_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  r.set("fleet.ns_per_check", static_cast<double>(pass.ns) /
                                  static_cast<double>(pass.checks));
  r.set("alloc.per_action", static_cast<double>(probe_allocs) /
                                static_cast<double>(pass.probes));
  r.set("kernel.syscalls_per_action", static_cast<double>(sys1 - sys0) /
                                          static_cast<double>(pass.probes));

  time_control_plane(r, fleet, check);

  // One untraced cycle, then one traced with a span recorder on every
  // vehicle's kernel.
  RolloutController controller(fleet, rollout_config());
  Candidates candidates(o.seed);
  const auto benign = benign_rollout(controller, fleet, candidates.benign(),
                                     check);
  const auto bad = bad_rollout(controller, fleet, candidates.bad(), check);
  r.set("fleet.rollout_s", static_cast<double>(benign.convergence_ns) / 1e9);
  r.set("fleet.rollback_ms", static_cast<double>(bad.rollback_ns) / 1e6);
  r.set("fleet.pushes_per_rollout", static_cast<double>(benign.pushes));

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto& kernel = fleet.vehicle(i).kernel();
    kernel.add_lsm_front(std::make_unique<sack::fuzz::WitnessSentinel>(&rec));
    kernel.set_mediation_witness(&rec);
  }
  rec.begin_request("rollout", Tag::rollout);
  const auto traced =
      benign_rollout(controller, fleet, candidates.benign(), check);
  rec.end_request();
  rec.begin_request("rollback", Tag::rollout);
  (void)bad_rollout(controller, fleet, candidates.bad(), check);
  rec.end_request();
  for (std::size_t i = 0; i < fleet.size(); ++i)
    fleet.vehicle(i).kernel().set_mediation_witness(nullptr);

  // kernel.syscall_share leaves out the SACKfs policy writes (sys_write),
  // whose bodies are the policy parse and DFA build.
  set_span_metrics(r, rec, Tag::rollout);
  r.set("trace.overhead", static_cast<double>(traced.convergence_ns) /
                                  static_cast<double>(benign.convergence_ns) -
                              1.0);
  if (!o.trace_dir.empty()) {
    const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".spans.tsv";
    if (rec.write_tsv(path, 2)) r.line("spans written to " + path);
  }

  // Layers this workload does not exercise record no work.
  for (const char* name :
       {"ivi.play_track_us_p50", "ivi.play_track_us_p99",
        "ivi.set_volume_us_p50", "ivi.set_volume_us_p99", "ivi.stat_us_p50",
        "ivi.stat_us_p99", "ivi.rescue_ioctl_us_p50",
        "ivi.rescue_ioctl_us_p99", "ivi.attacker_read_us_p50",
        "ivi.attacker_read_us_p99", "lsm.denials.sack",
        "lsm.denials.apparmor", "lsm.denials.sfi", "core.file_open_ns_p50",
        "core.avc_probe_ns_p50", "core.deliver_event_ns_p50",
        "core.events_write_ns_p50", "apparmor.file_open_ns_p50",
        "sfi.task_syscall_ns_p50", "sfi.set_situation_ns_p50",
        "sfi.attaches_per_transition", "sds.feed_us_p50", "sds.feed_us_p99",
        "sds.events_per_frame", "sds.writes_per_frame",
        "alloc.per_transition"})
    r.set(name, 0);

  r.line(fmt("check pass: %.0f checks in %.3f ms; untraced rollout %.6f s",
             static_cast<double>(pass.checks),
             static_cast<double>(pass.ns) / 1e6,
             static_cast<double>(benign.convergence_ns) / 1e9));
  return r;
}

}  // namespace

RunResult run_fleet(const RunOptions& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace perfbench
