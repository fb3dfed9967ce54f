// The benchmark's metric catalog and its one result shape.
//
// Every workload reports every end-to-end metric (untraced runs) and every
// per-layer metric (traced runs); a per-layer metric whose layer the
// workload does not exercise reads 0, meaning "recorded no work". The
// catalog here and BENCHMARK.json list the same names, units and order
// (a test checks it).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

std::span<const MetricSpec> end_to_end_metrics();
std::span<const MetricSpec> per_layer_metrics();

struct RunResult {
  // False when the stack under test is not the production configuration;
  // such a run emits no numbers.
  bool config_ok = true;
  std::string config_error;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double, std::less<>> values;
  // Human-readable report lines, printed ahead of the JSON result.
  std::vector<std::string> report;

  void set(std::string_view name, double value) {
    values.insert_or_assign(std::string(name), value);
  }
  void line(std::string text) { report.push_back(std::move(text)); }
};

// printf-style formatting of up to three numbers, for report lines.
std::string fmt(const char* format, double a, double b = 0, double c = 0);

// The final result line: {"correct", "attempted", "failed", "metrics"} with
// exactly the catalog for the run kind. Returns "" and sets `error` when a
// catalog metric is missing or not a finite number.
std::string result_json(const RunResult& result, bool trace,
                        std::string* error);

}  // namespace perfbench
