// The traced run's instruments, all outside the system under test:
//
//  * SpanRecorder — a MediationWitness installed with
//    Kernel::set_mediation_witness. The kernel reports syscall_enter/exit,
//    LsmStack reports chain verdicts and per-module denials, and a
//    fuzz::WitnessSentinel at the head of the stack (add_lsm_front) reports
//    every hook dispatch. The recorder turns those events into a span tree:
//    request (an app action, a sensor frame, a rollout) -> syscall -> hook
//    chain, each span timestamped with steady_clock. Spans stay in memory;
//    summaries are computed and the spans written out when the run ends.
//  * The allocation counter — a counting global operator new that lives in
//    the benchmark executables (alloc_counter.cpp); off unless enabled.
//  * time_calls — the direct-call timer used for single-layer timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel/lsm/witness.h"

namespace perfbench {

struct RunResult;

namespace alloc {
// Global allocation count (operator new calls) while counting is on.
void set_counting(bool on);
std::uint64_t count();
}  // namespace alloc

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Times `fn` in batches of `batch` calls and returns one per-call sample
// (ns) per batch, `samples` batches in all.
template <typename Fn>
std::vector<double> time_calls(std::size_t samples, std::size_t batch,
                               Fn&& fn) {
  std::vector<double> out;
  out.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    out.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(batch));
  }
  return out;
}

class SpanRecorder final : public sack::kernel::MediationWitness {
 public:
  enum class Kind : std::uint8_t { request, syscall, chain };
  // What a request span stands for.
  enum class RequestTag : std::uint8_t { none, action, frame, rollout };

  struct Span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t child_ns = 0;  // time covered by direct children
    std::uint32_t parent = kNoSpan;
    std::uint32_t request = kNoSpan;  // enclosing request span
    std::uint16_t name = 0;
    Kind kind = Kind::request;
    RequestTag tag = RequestTag::none;
  };
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  explicit SpanRecorder(std::size_t reserve_spans = 1 << 20);

  // Request spans are opened by the benchmark around each call it times.
  void begin_request(std::string_view name, RequestTag tag);
  void end_request();

  // --- MediationWitness ---
  void syscall_enter(std::string_view name) override;
  void syscall_exit(std::string_view name) override;
  void hook_enter(std::string_view hook) override;
  void chain_verdict(sack::Errno verdict) override;
  void module_verdict(std::string_view module, sack::Errno verdict) override;

  // --- results ---
  // Events that did not pair with an open span (must stay 0).
  std::uint64_t unpaired() const { return unpaired_; }
  // Denials per module inside requests with `tag`.
  std::uint64_t denials(RequestTag tag, std::string_view module) const;

  // Per-name duration samples (ns) of spans of `kind` inside requests with
  // `tag`: total and self (total minus direct children).
  struct Durations {
    std::vector<double> total_ns;
    std::vector<double> self_ns;
  };
  std::map<std::string, Durations> durations(Kind kind, RequestTag tag) const;

  // Aggregates over requests with `tag`.
  struct Totals {
    std::uint64_t syscalls = 0;       // syscall spans directly under requests
    std::uint64_t chains = 0;         // chain spans directly under syscalls
    std::uint64_t request_ns = 0;
    std::uint64_t syscall_ns = 0;
    std::uint64_t chain_ns = 0;
    std::uint64_t covered_ns = 0;     // request time covered by child spans
  };
  Totals totals(RequestTag tag) const;

  // Writes the spans of the first `max_requests` requests as TSV
  // (id, parent, request, kind, name, start_ns, duration_ns, self_ns).
  bool write_tsv(const std::string& path, std::size_t max_requests) const;

 private:
  std::uint16_t intern(std::string_view name);
  void open_span(std::string_view name, Kind kind);
  void close_span(Kind kind);

  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
  std::uint32_t current_request_ = kNoSpan;
  RequestTag current_tag_ = RequestTag::none;
  std::vector<std::string> names_;
  std::unordered_map<const char*, std::uint16_t> by_ptr_;
  std::map<std::pair<RequestTag, std::string>, std::uint64_t, std::less<>>
      denials_;
  std::uint64_t unpaired_ = 0;
};

// Sets the span-derived per-layer metrics from the requests with `tag`:
// kernel.sys_*.{total,self}_ns, lsm.<hook>.chain_ns, lsm.chains_per_syscall,
// lsm.share, trace.coverage, and kernel.syscall_share — syscall time outside
// sys_write (the SACKfs control writes) per request time. Unpaired witness
// events count as a failure.
void set_span_metrics(RunResult& r, const SpanRecorder& rec,
                      SpanRecorder::RequestTag tag);

}  // namespace perfbench
