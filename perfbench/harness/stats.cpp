#include "harness/stats.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

std::size_t quantile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool tail_reportable(std::size_t n, double p) {
  return n > 0 && n - quantile_rank(n, p) >= kMinBeyond;
}

double quantile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t idx = quantile_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double best_time(std::vector<double> window_values) {
  return quantile(window_values, kBestWindowShare);
}

double best_rate(std::vector<double> window_values) {
  return quantile(window_values, 1.0 - kBestWindowShare);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  kept_.reserve(capacity_);
}

void Reservoir::add(double value) {
  ++seen_;
  if (kept_.size() < capacity_) {
    kept_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_.below(seen_);
  if (slot < capacity_) kept_[slot] = value;
}

namespace {

// ALU work plus L1/L2 traffic over a small table; returns elapsed ns.
std::uint64_t calibration_ns() {
  std::uint32_t table[4096] = {};
  std::uint32_t x = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < 500'000; ++i) {
    x = x * 2654435761u + i;
    table[x & 4095] += x;
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint32_t keep = table[x & 4095];
  (void)keep;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

std::uint64_t status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0)
      return std::stoull(line.substr(prefix.size()));
  }
  return 0;
}

}  // namespace

int pin_to_fastest_cpu() {
  static cpu_set_t allowed;
  static const bool known =
      sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  if (!known) return -1;
  int best_cpu = -1;
  std::uint64_t best_ns = ~std::uint64_t{0};
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const std::uint64_t ns = std::min(calibration_ns(), calibration_ns());
    if (ns < best_ns) {
      best_ns = ns;
      best_cpu = cpu;
    }
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  if (best_cpu >= 0) CPU_SET(best_cpu, &chosen);
  if (best_cpu < 0 || sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    (void)sched_setaffinity(0, sizeof allowed, &allowed);
    return -1;
  }
  return best_cpu;
}

std::uint64_t peak_rss_kib() { return status_kib("VmHWM"); }
std::uint64_t current_rss_kib() { return status_kib("VmRSS"); }

}  // namespace perfbench
