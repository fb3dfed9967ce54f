// Sample statistics for the benchmark: the percentile rule, a bounded
// uniform reservoir, and peak-RSS probes.
//
// Percentile rule (nearest rank): the p-quantile of n sorted samples is the
// sample at rank ceil(p * n). A tail percentile is reportable only when at
// least kMinBeyond samples lie strictly beyond its rank, i.e.
// n - ceil(p * n) >= kMinBeyond — p99 therefore needs n >= 1000.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

// Rank (1-based) of the p-quantile under the nearest-rank rule; 0 when n == 0.
std::size_t quantile_rank(std::size_t n, double p);

// True when the p-quantile of n samples has at least kMinBeyond samples
// beyond it.
bool tail_reportable(std::size_t n, double p);

// Nearest-rank quantile; reorders `samples`. 0 for an empty vector.
double quantile(std::vector<double>& samples, double p);

double median(std::vector<double> samples);

// Run-level summaries over per-window figures, where each window's figure
// already covers every operation in it. The benchmark shares its host with
// other tenants, whose load slows it by up to 1.6x for seconds to minutes
// at a time. A run therefore reports its best windows, the least disturbed
// stretches of host time: the 5th-percentile window for a time, the 95th
// for a rate. The selection is over windows, not over operations, so a cost
// the program pays at least once per window still shows.
inline constexpr double kBestWindowShare = 0.05;
double best_time(std::vector<double> window_values);
double best_rate(std::vector<double> window_values);

// splitmix64: the one generator every seeded input in the benchmark uses.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Algorithm R: a uniform sample of at most `capacity` values out of every
// value offered, in constant memory, so a run's footprint does not depend on
// how many operations it completed. Quantiles are taken over the kept
// samples; count() is the number offered.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 1);

  void add(double value);
  void clear() {
    kept_.clear();
    seen_ = 0;
  }
  std::size_t count() const { return seen_; }
  // Quantiles of the kept samples (reorders them).
  double quantile(double p) { return perfbench::quantile(kept_, p); }
  bool tail_reportable(double p) const {
    return perfbench::tail_reportable(kept_.size(), p);
  }

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::vector<double> kept_;
  Rng rng_;
};

// The benchmark's client is one thread, so one CPU carries a run. On a
// shared host the CPUs are not equally fast at any moment (other tenants
// load some cores' siblings), so the run times a short calibration loop on
// every CPU it was allowed at its first call and pins itself to the
// fastest. Workloads call it again between measurement windows (outside
// the timed regions) to follow the host's load. Returns the chosen CPU, or
// -1 when affinity cannot be read or set.
int pin_to_fastest_cpu();

// Peak resident set (VmHWM) and current resident set (VmRSS) of this
// process, in KiB; 0 if /proc is unavailable.
std::uint64_t peak_rss_kib();
std::uint64_t current_rss_kib();

}  // namespace perfbench
