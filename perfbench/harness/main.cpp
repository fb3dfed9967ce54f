// perfbench: one command, three workloads, the production stack.
//
//   perfbench --workload <ivi_steady|situation_storm|fleet_rollout>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints human-readable report lines, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit codes:
// 0 all verdicts matched; 1 some did not (the result is still printed);
// 2 the stack is not the production configuration (nothing is printed);
// 64 bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/stats.h"
#include "harness/workloads.h"
#include "util/log.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ivi_steady|situation_storm|"
               "fleet_rollout> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return usage();

  // Situation transitions log at info level; keep the report readable.
  sack::Logger::instance().set_level(sack::LogLevel::error);
  const int cpu = perfbench::pin_to_fastest_cpu();

  perfbench::RunResult result;
  if (options.workload == "ivi_steady") {
    result = perfbench::run_ivi(options, perfbench::FrameMode::steady);
  } else if (options.workload == "situation_storm") {
    result = perfbench::run_ivi(options, perfbench::FrameMode::storm);
  } else if (options.workload == "fleet_rollout") {
    result = perfbench::run_fleet(options);
  } else {
    return usage();
  }

  if (!result.config_ok) {
    std::fprintf(stderr,
                 "perfbench: not the production configuration: %s\n",
                 result.config_error.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu trace %d cpu %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, cpu);
  for (const auto& line : result.report) std::printf("%s\n", line.c_str());
  std::printf("op_failure_ratio %.6g (%llu failed / %llu attempted)\n",
              result.attempted
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::string error;
  const std::string json =
      perfbench::result_json(result, options.trace, &error);
  if (json.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 3;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
