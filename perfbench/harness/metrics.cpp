#include "harness/metrics.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::array kEndToEnd = {
    MetricSpec{"ops_per_s_best5", "1/s"},
    MetricSpec{"batch_us_p50_best5", "us"},
    MetricSpec{"control_us_best5", "us"},
    MetricSpec{"setup_s", "s"},
    MetricSpec{"peak_rss_mb", "MiB"},
};

constexpr std::array kPerLayer = {
    // ivi: one app call, timed from the benchmark (untraced pass).
    MetricSpec{"ivi.play_track_us_p50", "us"},
    MetricSpec{"ivi.play_track_us_p99", "us"},
    MetricSpec{"ivi.set_volume_us_p50", "us"},
    MetricSpec{"ivi.set_volume_us_p99", "us"},
    MetricSpec{"ivi.stat_us_p50", "us"},
    MetricSpec{"ivi.stat_us_p99", "us"},
    MetricSpec{"ivi.rescue_ioctl_us_p50", "us"},
    MetricSpec{"ivi.rescue_ioctl_us_p99", "us"},
    MetricSpec{"ivi.attacker_read_us_p50", "us"},
    MetricSpec{"ivi.attacker_read_us_p99", "us"},
    // kernel: syscall spans from the mediation witness.
    MetricSpec{"kernel.sys_open.total_ns_p50", "ns"},
    MetricSpec{"kernel.sys_open.total_ns_p99", "ns"},
    MetricSpec{"kernel.sys_open.self_ns_p50", "ns"},
    MetricSpec{"kernel.sys_read.total_ns_p50", "ns"},
    MetricSpec{"kernel.sys_read.total_ns_p99", "ns"},
    MetricSpec{"kernel.sys_read.self_ns_p50", "ns"},
    MetricSpec{"kernel.sys_ioctl.total_ns_p50", "ns"},
    MetricSpec{"kernel.sys_ioctl.total_ns_p99", "ns"},
    MetricSpec{"kernel.sys_ioctl.self_ns_p50", "ns"},
    MetricSpec{"kernel.sys_close.total_ns_p50", "ns"},
    MetricSpec{"kernel.sys_close.total_ns_p99", "ns"},
    MetricSpec{"kernel.sys_close.self_ns_p50", "ns"},
    MetricSpec{"kernel.sys_stat.total_ns_p50", "ns"},
    MetricSpec{"kernel.sys_stat.total_ns_p99", "ns"},
    MetricSpec{"kernel.sys_stat.self_ns_p50", "ns"},
    MetricSpec{"kernel.sys_write.total_ns_p50", "ns"},
    MetricSpec{"kernel.syscalls_per_action", "count"},
    MetricSpec{"kernel.syscall_share", "ratio"},
    // lsm: hook-chain spans (head-of-stack sentinel -> chain verdict).
    MetricSpec{"lsm.task_syscall.chain_ns_p50", "ns"},
    MetricSpec{"lsm.task_syscall.chain_ns_p99", "ns"},
    MetricSpec{"lsm.file_open.chain_ns_p50", "ns"},
    MetricSpec{"lsm.file_open.chain_ns_p99", "ns"},
    MetricSpec{"lsm.file_permission.chain_ns_p50", "ns"},
    MetricSpec{"lsm.file_permission.chain_ns_p99", "ns"},
    MetricSpec{"lsm.file_ioctl.chain_ns_p50", "ns"},
    MetricSpec{"lsm.file_ioctl.chain_ns_p99", "ns"},
    MetricSpec{"lsm.inode_getattr.chain_ns_p50", "ns"},
    MetricSpec{"lsm.inode_getattr.chain_ns_p99", "ns"},
    MetricSpec{"lsm.chains_per_syscall", "count"},
    MetricSpec{"lsm.share", "ratio"},
    MetricSpec{"lsm.denials.sack", "count/1k"},
    MetricSpec{"lsm.denials.apparmor", "count/1k"},
    MetricSpec{"lsm.denials.sfi", "count/1k"},
    // core: direct calls into SackModule, its AVC and rule set.
    MetricSpec{"core.file_open_ns_p50", "ns"},
    MetricSpec{"core.avc_probe_ns_p50", "ns"},
    MetricSpec{"core.avc_hit_ratio", "ratio"},
    MetricSpec{"core.dfa_check_ns_p50", "ns"},
    MetricSpec{"core.deliver_event_ns_p50", "ns"},
    MetricSpec{"core.events_write_ns_p50", "ns"},
    MetricSpec{"core.policy_parse_ms", "ms"},
    MetricSpec{"core.policy_check_ms", "ms"},
    MetricSpec{"core.policy_dfa_build_ms", "ms"},
    MetricSpec{"core.policy_load_ms", "ms"},
    // apparmor / sfi: direct calls into the stacked modules.
    MetricSpec{"apparmor.file_open_ns_p50", "ns"},
    MetricSpec{"sfi.task_syscall_ns_p50", "ns"},
    MetricSpec{"sfi.set_situation_ns_p50", "ns"},
    MetricSpec{"sfi.attaches_per_transition", "count"},
    // sds: the frame path and its counters.
    MetricSpec{"sds.feed_us_p50", "us"},
    MetricSpec{"sds.feed_us_p99", "us"},
    MetricSpec{"sds.events_per_frame", "count"},
    MetricSpec{"sds.writes_per_frame", "count"},
    // fleet / verify: direct Vehicle and verifier calls, RolloutReport.
    MetricSpec{"fleet.vehicle_boot_ms", "ms"},
    MetricSpec{"fleet.rss_kb_per_vehicle", "KiB"},
    MetricSpec{"fleet.apply_policy_ms", "ms"},
    MetricSpec{"fleet.health_probe_ms", "ms"},
    MetricSpec{"fleet.pushes_per_rollout", "count"},
    MetricSpec{"fleet.ns_per_check", "ns"},
    MetricSpec{"fleet.rollout_s", "s"},
    MetricSpec{"fleet.rollback_ms", "ms"},
    MetricSpec{"verify.gate_ms", "ms"},
    // alloc: the counting operator new.
    MetricSpec{"alloc.per_action", "count"},
    MetricSpec{"alloc.per_transition", "count"},
    MetricSpec{"alloc.per_vehicle_boot", "count"},
    // trace: how much the spans explain, and what they cost.
    MetricSpec{"trace.coverage", "ratio"},
    MetricSpec{"trace.overhead", "ratio"},
};

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out += buf;
}

}  // namespace

std::string fmt(const char* format, double a, double b, double c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

std::string result_json(const RunResult& result, bool trace,
                        std::string* error) {
  std::string out = "{\"correct\": ";
  out += result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec :
       trace ? per_layer_metrics() : end_to_end_metrics()) {
    auto it = result.values.find(spec.name);
    if (it == result.values.end() || !std::isfinite(it->second)) {
      if (error) *error = "metric " + std::string(spec.name) + " not measured";
      return {};
    }
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += spec.name;
    out += "\": {\"value\": ";
    append_number(out, it->second);
    out += ", \"unit\": \"";
    out += spec.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
