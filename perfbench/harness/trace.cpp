#include "harness/trace.h"

#include <fstream>

#include "harness/metrics.h"
#include "harness/stats.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t reserve_spans) {
  spans_.reserve(reserve_spans);
  open_.reserve(64);
}

std::uint16_t SpanRecorder::intern(std::string_view name) {
  // Witness names are string literals, so the data pointer is a stable key;
  // the same text under two pointers gets two ids, merged by name when
  // results are computed.
  auto it = by_ptr_.find(name.data());
  if (it != by_ptr_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(name);
  by_ptr_.emplace(name.data(), id);
  return id;
}

void SpanRecorder::open_span(std::string_view name, Kind kind) {
  Span s;
  s.name = intern(name);
  s.kind = kind;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.request = current_request_;
  s.tag = current_tag_;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  s.start = now_ns();
  spans_.push_back(s);
}

void SpanRecorder::close_span(Kind kind) {
  const std::uint64_t t = now_ns();
  if (open_.empty() || spans_[open_.back()].kind != kind) {
    ++unpaired_;
    return;
  }
  Span& s = spans_[open_.back()];
  open_.pop_back();
  s.end = t;
  if (s.parent != kNoSpan) spans_[s.parent].child_ns += s.end - s.start;
}

void SpanRecorder::begin_request(std::string_view name, RequestTag tag) {
  current_tag_ = tag;
  current_request_ = static_cast<std::uint32_t>(spans_.size());
  open_span(name, Kind::request);
}

void SpanRecorder::end_request() {
  close_span(Kind::request);
  current_request_ = kNoSpan;
  current_tag_ = RequestTag::none;
}

void SpanRecorder::syscall_enter(std::string_view name) {
  open_span(name, Kind::syscall);
}

void SpanRecorder::syscall_exit(std::string_view) { close_span(Kind::syscall); }

void SpanRecorder::hook_enter(std::string_view hook) {
  open_span(hook, Kind::chain);
}

void SpanRecorder::chain_verdict(sack::Errno) { close_span(Kind::chain); }

void SpanRecorder::module_verdict(std::string_view module, sack::Errno) {
  ++denials_[{current_tag_, std::string(module)}];
}

std::uint64_t SpanRecorder::denials(RequestTag tag,
                                    std::string_view module) const {
  auto it = denials_.find(std::pair<RequestTag, std::string>(tag, module));
  return it == denials_.end() ? 0 : it->second;
}

std::map<std::string, SpanRecorder::Durations> SpanRecorder::durations(
    Kind kind, RequestTag tag) const {
  std::map<std::string, Durations> out;
  for (const Span& s : spans_) {
    if (s.kind != kind || s.tag != tag || s.end == 0) continue;
    auto& d = out[names_[s.name]];
    const auto total = static_cast<double>(s.end - s.start);
    d.total_ns.push_back(total);
    d.self_ns.push_back(total - static_cast<double>(s.child_ns));
  }
  return out;
}

SpanRecorder::Totals SpanRecorder::totals(RequestTag tag) const {
  Totals t;
  for (const Span& s : spans_) {
    if (s.tag != tag || s.end == 0) continue;
    const std::uint64_t d = s.end - s.start;
    const Kind parent_kind =
        s.parent == kNoSpan ? Kind::request : spans_[s.parent].kind;
    switch (s.kind) {
      case Kind::request:
        t.request_ns += d;
        t.covered_ns += s.child_ns;
        break;
      case Kind::syscall:
        if (s.parent != kNoSpan && parent_kind == Kind::request) {
          ++t.syscalls;
          t.syscall_ns += d;
        }
        break;
      case Kind::chain:
        if (s.parent != kNoSpan && parent_kind == Kind::syscall) {
          ++t.chains;
          t.chain_ns += d;
        }
        break;
    }
  }
  return t;
}

bool SpanRecorder::write_tsv(const std::string& path,
                             std::size_t max_requests) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trequest\tkind\tname\tstart_ns\tduration_ns\tself_ns\n";
  static constexpr const char* kKinds[] = {"request", "syscall", "chain"};
  std::size_t requests = 0;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.kind == Kind::request && ++requests > max_requests) break;
    const long long parent =
        s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent);
    const long long request =
        s.request == kNoSpan ? -1 : static_cast<long long>(s.request);
    const std::uint64_t dur = s.end >= s.start ? s.end - s.start : 0;
    out << i << '\t' << parent << '\t' << request << '\t'
        << kKinds[static_cast<int>(s.kind)] << '\t' << names_[s.name] << '\t'
        << (s.start - t0) << '\t' << dur << '\t' << (dur - s.child_ns)
        << '\n';
  }
  return static_cast<bool>(out);
}

void set_span_metrics(RunResult& r, const SpanRecorder& rec,
                      SpanRecorder::RequestTag tag) {
  if (rec.unpaired() != 0) {
    r.line("trace: " + std::to_string(rec.unpaired()) + " unpaired events");
    ++r.failed;
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto syscalls = rec.durations(SpanRecorder::Kind::syscall, tag);
  double write_ns = 0;
  for (double v : syscalls["sys_write"].total_ns) write_ns += v;
  r.set("kernel.sys_write.total_ns_p50",
        quantile(syscalls["sys_write"].total_ns, 0.50));
  for (const char* name :
       {"sys_open", "sys_read", "sys_ioctl", "sys_close", "sys_stat"}) {
    auto& d = syscalls[name];
    const std::string base = "kernel." + std::string(name) + ".";
    r.set(base + "total_ns_p50", quantile(d.total_ns, 0.50));
    r.set(base + "total_ns_p99", quantile(d.total_ns, 0.99));
    r.set(base + "self_ns_p50", quantile(d.self_ns, 0.50));
  }
  auto chains = rec.durations(SpanRecorder::Kind::chain, tag);
  for (const char* hook : {"task_syscall", "file_open", "file_permission",
                           "file_ioctl", "inode_getattr"}) {
    auto& d = chains[hook];
    const std::string base = "lsm." + std::string(hook) + ".chain_ns_";
    r.set(base + "p50", quantile(d.total_ns, 0.50));
    r.set(base + "p99", quantile(d.total_ns, 0.99));
  }
  const auto t = rec.totals(tag);
  r.set("kernel.syscall_share",
        ratio(static_cast<double>(t.syscall_ns) - write_ns,
              static_cast<double>(t.request_ns)));
  r.set("lsm.chains_per_syscall", ratio(static_cast<double>(t.chains),
                                        static_cast<double>(t.syscalls)));
  r.set("lsm.share", ratio(static_cast<double>(t.chain_ns),
                           static_cast<double>(t.syscall_ns)));
  r.set("trace.coverage", ratio(static_cast<double>(t.covered_ns),
                                static_cast<double>(t.request_ns)));
}

}  // namespace perfbench
