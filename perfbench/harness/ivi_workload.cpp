// ivi_steady and situation_storm: the production IVI stack driven by one
// closed-loop client (IVI apps block on every syscall), with sensor frames
// fed through the SDS between actions.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "harness/ivi_rig.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "kernel/process.h"

namespace perfbench {

IviRig::IviRig() : sys_(production_ivi_options()) {}

void IviRig::populate() {
  // Part of the image, like the files IviSystem lays down before its
  // policies load: SACK guards /var/media/**, so not even root may create
  // files there through the syscall layer afterwards.
  auto& vfs = sys_.kernel().vfs();
  const auto dir = vfs.mkdir_p("/var/media/lib");
  paths_.reserve(kTracks);
  for (std::uint32_t i = 0; i < kTracks; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "track%03u.pcm", i);
    auto inode = vfs.make_inode(sack::kernel::InodeType::regular,
                                sack::kernel::kModeDefaultFile, 0, 0);
    inode->data().assign(kTrackBytes, static_cast<char>('a' + i % 26));
    vfs.link_child(dir, name, inode);
    paths_.push_back("/var/media/lib/" + std::string(name));
  }
}

Outcome IviRig::perform(const Step& step) {
  using sack::Errno;
  switch (step.action) {
    case Action::play_track: {
      auto r = sys_.media().play_track(paths_[step.track]);
      if (!r.ok()) return {r.error()};
      return {Errno::ok, (*r).size() == kTrackBytes};
    }
    case Action::set_volume: {
      auto r = sys_.media().set_volume(step.volume);
      if (!r.ok()) return {r.error()};
      return {Errno::ok, sys_.hardware().state().audio_volume == step.volume};
    }
    case Action::stat_track: {
      auto r = sys_.media_process().stat(paths_[step.track]);
      if (!r.ok()) return {r.error()};
      return {Errno::ok, (*r).size == kTrackBytes};
    }
    case Action::rescue_ioctl: {
      // Door then window; both attempts must agree.
      auto log = sys_.rescue().respond_to_emergency();
      if (log.attempts.size() != 2) return {Errno::eio, false};
      const Errno first = log.attempts[0].result;
      return {first, log.attempts[1].result == first};
    }
    case Action::attacker_read: {
      auto r = sys_.attacker().read_sensitive(
          sack::ivi::IviSystem::kSensitiveFile);
      return {r.ok() ? Errno::ok : r.error()};
    }
  }
  return {Errno::eio, false};
}

namespace {

using sack::Errno;
using sack::ivi::IviSystem;
using Tag = SpanRecorder::RequestTag;
using Rig = IviRig;

// A timed run is cut into kSegments segments, each driven on a freshly set
// up system, with a batch of kSetupsPerBatch timed set-ups before each
// segment and after the last one.
constexpr std::size_t kSegments = 10;
constexpr std::size_t kSetupsPerBatch = 20;
// Rounds per traced-run pass: fixed, so count metrics repeat exactly.
constexpr std::uint64_t kTracedRounds = 5'000;
constexpr std::size_t kKindReservoir = 1 << 16;
// Timed runs are cut into 1-s windows and report their best ones
// (best_time / best_rate). Each window holds every operation of its second,
// so a cost the program pays at least once a second is in every window.
constexpr std::uint64_t kWindowNs = 1'000'000'000;
// Actuation records kept before the (untimed) clear.
constexpr std::size_t kActuationsKept = 256;
constexpr std::size_t kMismatchesReported = 5;

// Rounds of the mix between two sensor frames: in the storm a transition
// every 18 actions; at rest a confirming frame every 72.
std::uint32_t rounds_per_frame(FrameMode mode) {
  return mode == FrameMode::storm ? 3 : 12;
}

double per_s(std::uint64_t n, std::uint64_t ns) {
  return ns ? static_cast<double>(n) * 1e9 / static_cast<double>(ns) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Denials each action makes its expected denier record (rescue attempts
// the door and the window).
std::uint64_t denials_per_action(Action a) {
  return a == Action::rescue_ioctl ? 2 : 1;
}

struct Pass {
  explicit Pass(std::uint64_t seed) {
    for (std::size_t k = 0; k < kActionCount; ++k)
      per_kind.emplace_back(kKindReservoir, seed + k + 1);
  }

  std::vector<Reservoir> per_kind;
  Reservoir frame_us{kKindReservoir, 7};
  // The current window's round and frame samples, and each closed window's
  // figures.
  Reservoir window_round_us{kKindReservoir, 11};
  Reservoir window_frame_us{kKindReservoir, 13};
  std::vector<double> win_ops, win_p50, win_p90, win_p99, win_frame_p50;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;
  std::uint64_t frames = 0;
  std::uint64_t transitions = 0;
  std::uint64_t elapsed_ns = 0;
  std::uint64_t action_syscalls = 0;
  std::uint64_t action_allocs = 0;
  std::uint64_t transition_allocs = 0;
  std::uint64_t events_delivered = 0;
  std::map<std::string, std::uint64_t, std::less<>> expected_denials;
  std::vector<std::string> mismatches;

  void mismatch(std::string what) {
    ++failed;
    if (mismatches.size() < kMismatchesReported)
      mismatches.push_back(std::move(what));
  }
};

std::string describe(Situation s, const Step& step, const Outcome& got,
                     const Expectation& want) {
  return std::string(action_name(step.action)) + " in " +
         std::string(situation_name(s)) + ": got " +
         std::string(sack::errno_name(got.verdict)) +
         (got.consistent ? "" : " (malformed result)") + ", want " +
         std::string(sack::errno_name(want.verdict));
}

// Checks one action's result against the table and books it.
void check_action(Pass& pass, Situation s, const Step& step,
                  const Outcome& got) {
  ++pass.attempted;
  const Expectation want = expected(s, step.action);
  if (!got.consistent || got.verdict != want.verdict)
    pass.mismatch(describe(s, step, got, want));
  if (want.verdict != Errno::ok)
    pass.expected_denials[std::string(want.denier)] +=
        denials_per_action(step.action);
}

// Checks that a fed frame's situation is visible in SACK and in SFI.
void check_frame(Pass& pass, IviSystem& sys, Situation s,
                 const sack::sds::FeedResult& fed) {
  ++pass.attempted;
  const auto name = situation_name(s);
  if (fed.delivered.size() != fed.emitted.size())
    pass.mismatch("frame: an emitted event was not delivered");
  else if (sys.sack()->current_state_name() != name)
    pass.mismatch("frame: SACK shows " + sys.sack()->current_state_name() +
                  ", want " + std::string(name));
  else if (sys.sfi()->current_situation() != name)
    pass.mismatch("frame: SFI shows " + sys.sfi()->current_situation() +
                  ", want " + std::string(name));
}

// Fills the caches the steady state relies on (AVC, inode labels, the
// per-file revalidation stamps, SFI attaches, the detectors' first
// observation), checking every verdict on the way. Untimed.
void warm_up(Rig& rig, Pass& pass) {
  auto& sys = rig.sys();
  sack::sds::SensorFrame parked;
  parked.driver_present = true;
  check_frame(pass, sys, Situation::parked_with_driver,
              sys.sds().feed(parked));
  const auto s = Situation::parked_with_driver;
  for (std::uint32_t t = 0; t < kTracks; ++t) {
    for (Action a : {Action::play_track, Action::stat_track}) {
      const Step step{a, t, 0};
      check_action(pass, s, step, rig.perform(step));
    }
  }
  for (Action a :
       {Action::set_volume, Action::rescue_ioctl, Action::attacker_read}) {
    const Step step{a, 0, 10};
    check_action(pass, s, step, rig.perform(step));
  }
  sys.hardware().clear_actuations();
}

// A fresh production rig, checked, populated and warmed. Null (with `why`
// set) when the stack is not the production configuration.
std::unique_ptr<Rig> make_rig(Pass& warm, std::string* why) {
  auto rig = std::make_unique<Rig>();
  *why = check_ivi_production(rig->sys());
  if (!why->empty()) return nullptr;
  rig->populate();
  warm_up(*rig, warm);
  return rig;
}

// The closed loop: one action at a time, a round of the mix after another,
// a sensor frame every rounds_per_frame(mode) rounds. Stops after `seconds`
// (when > 0) or `max_rounds` (when > 0). With a recorder, every action and
// frame is bracketed by a request span.
void drive(Rig& rig, FrameMode mode, std::uint64_t seed, double seconds,
           std::uint64_t max_rounds, SpanRecorder* rec, Pass& pass) {
  ActionStream actions(seed, kTracks);
  FrameStream frames(seed, mode);
  const std::uint32_t rpf = rounds_per_frame(mode);
  auto& sys = rig.sys();
  auto& kernel = sys.kernel();
  auto& hw = sys.hardware();
  Situation situation = Situation::parked_with_driver;

  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      seconds > 0 ? start + static_cast<std::uint64_t>(seconds * 1e9)
                  : ~std::uint64_t{0};
  std::uint64_t window_start = start;
  std::uint64_t window_actions = pass.actions;
  // Closes the window that began at window_start: its throughput and its
  // own round and frame quantiles.
  auto close_window = [&](std::uint64_t t) {
    pass.win_ops.push_back(
        per_s(pass.actions - window_actions, t - window_start));
    pass.win_p50.push_back(pass.window_round_us.quantile(0.50));
    pass.win_p90.push_back(pass.window_round_us.quantile(0.90));
    pass.win_p99.push_back(pass.window_round_us.quantile(0.99));
    if (pass.window_frame_us.count() > 0)
      pass.win_frame_p50.push_back(pass.window_frame_us.quantile(0.50));
    pass.window_round_us.clear();
    pass.window_frame_us.clear();
    window_start = t;
    window_actions = pass.actions;
  };
  for (std::uint64_t i = 0;; ++i) {
    if (max_rounds && i >= max_rounds) break;
    if ((i & 15) == 0 && seconds > 0) {
      const std::uint64_t t = now_ns();
      if (t - window_start >= kWindowNs || t >= deadline) {
        close_window(t);
        if (t >= deadline) break;
      }
    }

    if (i % rpf == 0) {
      const FrameStep fs = frames.next();
      const std::uint64_t a0 = alloc::count();
      if (rec) rec->begin_request("frame", Tag::frame);
      const std::uint64_t t0 = now_ns();
      const auto fed = sys.sds().feed(fs.frame);
      const std::uint64_t t1 = now_ns();
      if (rec) rec->end_request();
      if (fs.transition) {
        ++pass.transitions;
        pass.transition_allocs += alloc::count() - a0;
      }
      ++pass.frames;
      pass.frame_us.add(static_cast<double>(t1 - t0) / 1e3);
      pass.window_frame_us.add(static_cast<double>(t1 - t0) / 1e3);
      pass.events_delivered += fed.delivered.size();
      situation = fs.expect;
      // feed() is synchronous: the new situation must be visible in SACK's
      // SSM and in SFI's overlay the moment it returns.
      check_frame(pass, sys, situation, fed);
    }

    // A round's latency is the sum of its actions' (bookkeeping between
    // them is not timed).
    double round_us = 0;
    for (const Step& step : actions.next_round()) {
      if (!issued(situation, step.action)) continue;
      const std::uint64_t s0 = kernel.syscall_count();
      const std::uint64_t a0 = alloc::count();
      if (rec) rec->begin_request(action_name(step.action), Tag::action);
      const std::uint64_t t0 = now_ns();
      const Outcome got = rig.perform(step);
      const std::uint64_t t1 = now_ns();
      if (rec) rec->end_request();
      pass.action_allocs += alloc::count() - a0;
      pass.action_syscalls += kernel.syscall_count() - s0;
      const double us = static_cast<double>(t1 - t0) / 1e3;
      round_us += us;
      pass.per_kind[static_cast<std::size_t>(step.action)].add(us);
      ++pass.actions;
      check_action(pass, situation, step, got);
    }
    pass.window_round_us.add(round_us);
    ++pass.rounds;
    if (hw.actuations().size() >= kActuationsKept) hw.clear_actuations();
  }
  pass.elapsed_ns += now_ns() - start;
}

void report_mismatches(RunResult& r, const Pass& pass) {
  for (const auto& m : pass.mismatches) r.line("MISMATCH " + m);
}

void book(RunResult& r, const Pass& pass) {
  r.attempted += pass.attempted;
  r.failed += pass.failed;
  report_mismatches(r, pass);
}

RunResult run_timed(const RunOptions& o, FrameMode mode) {
  RunResult r;
  // setup_s times IviSystem construction and the production check, nothing
  // else, with one system alive at a time. Each batch's last system is
  // populated and warmed (untimed) and drives the next segment, with its own
  // seeded inputs. setup_s is the median of the quietest batch (best_time
  // over the batch medians): like the best windows, a stretch of host
  // contention drops out, while a cost every set-up pays still shows.
  std::vector<double> batch_medians;
  std::unique_ptr<Rig> rig;
  auto set_up = [&]() {
    std::vector<double> times;
    for (std::size_t k = 0; k < kSetupsPerBatch; ++k) {
      rig.reset();
      const std::uint64_t t0 = now_ns();
      rig = std::make_unique<Rig>();
      const std::string why = check_ivi_production(rig->sys());
      times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (!why.empty()) {
        r.config_ok = false;
        r.config_error = why;
        return false;
      }
    }
    batch_medians.push_back(median(std::move(times)));
    return true;
  };
  Rng segment_seeds(o.seed);
  Pass warm(o.seed);
  Pass pass(o.seed);
  for (std::size_t k = 0; k < kSegments; ++k) {
    (void)pin_to_fastest_cpu();  // follows the host's load; not timed
    if (!set_up()) return r;
    rig->populate();
    warm_up(*rig, warm);
    drive(*rig, mode, segment_seeds.next(),
          o.seconds / static_cast<double>(kSegments), 0, nullptr, pass);
  }
  const double rss = static_cast<double>(peak_rss_kib()) / 1024.0;
  if (!set_up()) return r;
  rig.reset();
  book(r, warm);
  book(r, pass);

  // The run's best windows; median windows and whole-run figures beside.
  const double ops = best_rate(pass.win_ops);
  const double p50 = best_time(pass.win_p50);
  const double p90 = best_time(pass.win_p90);
  const double p99 = best_time(pass.win_p99);
  const double f50 = best_time(pass.win_frame_p50);
  const double f99 = pass.frame_us.quantile(0.99);
  if (!tail_reportable(pass.rounds / pass.win_ops.size(), 0.99)) {
    r.line("too few rounds per window for a p99");
    ++r.failed;
  }
  const double setup = best_time(batch_medians);
  r.set("ops_per_s_best5", ops);
  r.set("batch_us_p50_best5", p50);
  r.set("control_us_best5", f50);
  r.set("setup_s", setup);
  r.set("peak_rss_mb", rss);

  const double secs = static_cast<double>(pass.elapsed_ns) / 1e9;
  r.line("stack: sack,apparmor,sfi (DfaRuleSet), default IVI policies, "
         "1 closed-loop client");
  r.line(fmt("windows: %.0f x %.2f s; figures are the best 5%% of windows "
             "unless marked median or whole-run",
             static_cast<double>(pass.win_ops.size()),
             static_cast<double>(kWindowNs) / 1e9));
  auto spread = [&](const char* name, std::vector<double> v) {
    r.line(std::string("window ") + name +
           fmt(" min %.4g  median %.4g  max %.4g", quantile(v, 0.0),
               quantile(v, 0.5), quantile(v, 1.0)));
  };
  spread("round_latency_us_p50", pass.win_p50);
  spread("situation_latency_us_p50", pass.win_frame_p50);
  spread("app_ops_per_s", pass.win_ops);
  r.line(fmt("app_ops_per_s %.1f actions/s (whole-run: %.0f actions in "
             "%.3f s)",
             ops, static_cast<double>(pass.actions), secs));
  r.line(fmt("round_latency_us_p50 %.4f us  p90 %.4f us  p99 %.4f us", p50,
             p90, p99));
  r.line(fmt("(n=%.0f rounds of up to 6 actions)",
             static_cast<double>(pass.rounds)));
  for (std::size_t k = 0; k < kActionCount; ++k) {
    auto& kind = pass.per_kind[k];
    r.line(std::string("app_latency_us ") +
           std::string(action_name(static_cast<Action>(k))) +
           fmt(" p50 %.4f us  p99 %.4f us whole-run (n=%.0f)",
               kind.quantile(0.50), kind.quantile(0.99),
               static_cast<double>(kind.count())));
  }
  r.line(fmt("situation_latency_us_p50 %.4f us  situation_latency_us_p99 "
             "%.4f us (whole-run) (n=%.0f frames)",
             f50, f99, static_cast<double>(pass.frames)));
  r.line(fmt("frames_per_s %.1f  transitions_per_s %.1f  transitions %.0f",
             static_cast<double>(pass.frames) / secs,
             static_cast<double>(pass.transitions) / secs,
             static_cast<double>(pass.transitions)));
  r.line(fmt("setup_s %.6f s (quietest of %.0f batches of %.0f set-ups)",
             setup, static_cast<double>(batch_medians.size()),
             static_cast<double>(kSetupsPerBatch)));
  r.line(fmt("median set-up batch %.6f s  peak_rss_mb %.2f MiB",
             median(batch_medians), rss));
  return r;
}

// Per-call timings of the layers' public entry points, with the workload's
// own arguments, on a rig whose traced-run pass has finished.
void time_layers(RunResult& r, Rig& rig, FrameMode mode) {
  auto& sys = rig.sys();
  auto& kernel = sys.kernel();
  auto* sack_mod = sys.sack();
  auto* aa = sys.apparmor();
  auto* sfi_mod = sys.sfi();
  auto& task = sys.media_process().task();
  const auto& paths = rig.paths();

  std::vector<sack::kernel::InodePtr> inodes;
  for (const auto& p : paths) {
    auto res = kernel.vfs().resolve(task.cred(), p, "/");
    inodes.push_back(res.ok() ? (*res).inode : nullptr);
  }
  if (std::any_of(inodes.begin(), inodes.end(),
                  [](const auto& i) { return !i; })) {
    r.line("a library track did not resolve");
    ++r.failed;
    return;
  }

  unsigned sink = 0;
  const auto read = sack::kernel::AccessMask::read;
  auto p50 = [](std::vector<double> v) { return median(std::move(v)); };
  r.set("core.file_open_ns_p50",
        p50(time_calls(2000, 64, [&](std::size_t i) {
          const auto t = i % kTracks;
          sink += static_cast<unsigned>(
              sack_mod->file_open(task, paths[t], *inodes[t], read));
        })));
  r.set("apparmor.file_open_ns_p50",
        p50(time_calls(2000, 64, [&](std::size_t i) {
          const auto t = i % kTracks;
          sink += static_cast<unsigned>(
              aa->file_open(task, paths[t], *inodes[t], read));
        })));

  const std::string profile = aa->profile_of(task);
  std::vector<sack::core::AccessQuery> queries;
  for (const auto& p : paths)
    queries.push_back({task.exe_path(), profile, p, sack::core::MacOp::read});
  const std::uint64_t generation = sack_mod->policy_generation();
  r.set("core.avc_probe_ns_p50",
        p50(time_calls(2000, 64, [&](std::size_t i) {
          sink += sack_mod->avc().probe(queries[i % kTracks], generation)
                      ? 1u
                      : 0u;
        })));
  queries.push_back({task.exe_path(), profile,
                     sack::ivi::VehicleHardware::kAudioPath,
                     sack::core::MacOp::write});
  queries.push_back({sack::ivi::RescueDaemon::kExePath, "rescue_daemon",
                     sack::ivi::VehicleHardware::kDoorPath,
                     sack::core::MacOp::write});
  r.set("core.dfa_check_ns_p50",
        p50(time_calls(2000, 64, [&](std::size_t i) {
          sink += static_cast<unsigned>(
              sack_mod->ruleset().check(queries[i % queries.size()]));
        })));

  // A spare confined media task walking the learned open/read/close cycle.
  auto& spare = kernel.spawn_task("media_app", sack::kernel::Cred::root(),
                                  std::string(sack::ivi::MediaApp::kExePath));
  static constexpr std::string_view kCycle[] = {"sys_open", "sys_read",
                                                "sys_read", "sys_close"};
  for (std::size_t i = 0; i < 1024; ++i)
    (void)sfi_mod->task_syscall(spare, kCycle[i % 4]);
  r.set("sfi.task_syscall_ns_p50",
        p50(time_calls(2000, 256, [&](std::size_t i) {
          sink += static_cast<unsigned>(
              sfi_mod->task_syscall(spare, kCycle[i % 4]));
        })));

  if (mode == FrameMode::storm) {
    // Transition paths: SSM delivery (with APE activation, AVC flush and
    // the SFI fan-out), the SACKfs events write around it, and the SFI
    // overlay switch alone. Each call flips parked <-> driving.
    if (sack_mod->current_state_name() == "emergency")
      (void)sack_mod->deliver_event("emergency_cleared");
    if (sack_mod->current_state_name() == "driving")
      (void)sack_mod->deliver_event("stop_driving");
    static constexpr std::string_view kFlip[] = {"start_driving",
                                                 "stop_driving"};
    r.set("core.deliver_event_ns_p50",
          p50(time_calls(2000, 1, [&, n = std::size_t{0}](std::size_t) mutable {
            sink += sack_mod->deliver_event(kFlip[n++ % 2]).ok() ? 1u : 0u;
          })));
    auto admin = sys.admin_process();
    auto fd = admin.open(sack::sds::SituationDetectionService::kEventsPath,
                         sack::kernel::OpenFlags::write);
    if (fd.ok()) {
      static constexpr std::string_view kLines[] = {"start_driving\n",
                                                    "stop_driving\n"};
      r.set("core.events_write_ns_p50",
            p50(time_calls(2000, 1,
                           [&, n = std::size_t{0}](std::size_t) mutable {
                             sink += admin.write(*fd, kLines[n++ % 2]).ok()
                                         ? 1u
                                         : 0u;
                           })));
      (void)admin.close(*fd);
    } else {
      r.line("cannot open the SACK events file");
      ++r.failed;
    }
    static constexpr std::string_view kSituations[] = {"driving",
                                                       "parked_with_driver"};
    r.set("sfi.set_situation_ns_p50",
          p50(time_calls(2000, 1, [&, n = std::size_t{0}](std::size_t) mutable {
            sfi_mod->set_situation(kSituations[n++ % 2]);
          })));
    sfi_mod->set_situation(sack_mod->current_state_name());
  } else {
    r.set("core.deliver_event_ns_p50", 0);
    r.set("core.events_write_ns_p50", 0);
    r.set("sfi.set_situation_ns_p50", 0);
  }
  if (sink == 0xdeadbeef) r.line("");  // keeps the timed calls observable
}

RunResult run_traced(const RunOptions& o, FrameMode mode) {
  RunResult r;
  std::string why;

  // Pass A, untraced: the reference throughput, per-action latencies, the
  // AVC hit ratio, syscall and SDS counts. Then the direct-call timers.
  Pass warm_a(o.seed);
  auto a = make_rig(warm_a, &why);
  if (!a) {
    r.config_ok = false;
    r.config_error = why;
    return r;
  }
  book(r, warm_a);
  auto& sds_a = a->sys().sds();
  const auto avc0 = a->sys().sack()->avc().stats();
  const std::uint64_t attach0 = a->sys().sfi()->attach_count();
  const std::uint64_t writes0 =
      sds_a.events_sent() + sds_a.heartbeats_sent() + sds_a.resyncs_sent();
  Pass pa(o.seed);
  drive(*a, mode, o.seed, 0, kTracedRounds, nullptr, pa);
  book(r, pa);
  const auto avc1 = a->sys().sack()->avc().stats();
  const std::uint64_t writes1 =
      sds_a.events_sent() + sds_a.heartbeats_sent() + sds_a.resyncs_sent();
  const double hits = static_cast<double>(avc1.hits - avc0.hits);
  const double misses = static_cast<double>(avc1.misses - avc0.misses);
  r.set("core.avc_hit_ratio", ratio(hits, hits + misses));
  r.set("sfi.attaches_per_transition",
        ratio(static_cast<double>(a->sys().sfi()->attach_count() - attach0),
              static_cast<double>(pa.transitions)));
  r.set("kernel.syscalls_per_action",
        ratio(static_cast<double>(pa.action_syscalls),
              static_cast<double>(pa.actions)));
  for (std::size_t k = 0; k < kActionCount; ++k) {
    std::string base = "ivi." + std::string(action_name(
                                    static_cast<Action>(k))) + "_us_";
    r.set(base + "p50", pa.per_kind[k].quantile(0.50));
    r.set(base + "p99", pa.per_kind[k].quantile(0.99));
  }
  r.set("sds.feed_us_p50", pa.frame_us.quantile(0.50));
  r.set("sds.feed_us_p99", pa.frame_us.quantile(0.99));
  r.set("sds.events_per_frame",
        ratio(static_cast<double>(pa.events_delivered),
              static_cast<double>(pa.frames)));
  r.set("sds.writes_per_frame", ratio(static_cast<double>(writes1 - writes0),
                                      static_cast<double>(pa.frames)));
  time_layers(r, *a, mode);
  a.reset();

  // Pass C: the same inputs with the allocation counter on.
  Pass warm_c(o.seed);
  auto c = make_rig(warm_c, &why);
  if (!c) {
    r.config_ok = false;
    r.config_error = why;
    return r;
  }
  book(r, warm_c);
  Pass pc(o.seed);
  alloc::set_counting(true);
  drive(*c, mode, o.seed, 0, kTracedRounds, nullptr, pc);
  alloc::set_counting(false);
  book(r, pc);
  c.reset();
  r.set("alloc.per_action", ratio(static_cast<double>(pc.action_allocs),
                                  static_cast<double>(pc.actions)));
  r.set("alloc.per_transition",
        ratio(static_cast<double>(pc.transition_allocs),
              static_cast<double>(pc.transitions)));

  // Pass B: the same inputs, traced. The recorder outlives the rig: the
  // sentinel it installs reports to it until the kernel is gone.
  SpanRecorder rec;
  Pass warm_b(o.seed);
  auto b = make_rig(warm_b, &why);
  if (!b) {
    r.config_ok = false;
    r.config_error = why;
    return r;
  }
  book(r, warm_b);
  auto& kernel = b->sys().kernel();
  kernel.add_lsm_front(std::make_unique<sack::fuzz::WitnessSentinel>(&rec));
  kernel.set_mediation_witness(&rec);
  Pass pb(o.seed);
  drive(*b, mode, o.seed, 0, kTracedRounds, &rec, pb);
  kernel.set_mediation_witness(nullptr);
  book(r, pb);

  set_span_metrics(r, rec, Tag::action);
  for (const char* module : {"sack", "apparmor", "sfi"}) {
    const std::uint64_t got = rec.denials(Tag::action, module);
    const auto it = pb.expected_denials.find(module);
    const std::uint64_t want = it == pb.expected_denials.end() ? 0 : it->second;
    if (got != want) {
      r.line("denials by " + std::string(module) + ": " +
             std::to_string(got) + ", the verdict table expects " +
             std::to_string(want));
      ++r.failed;
    }
    r.set("lsm.denials." + std::string(module),
          1000.0 * ratio(static_cast<double>(got),
                         static_cast<double>(pb.actions)));
  }
  const double ops_a = per_s(pa.actions, pa.elapsed_ns);
  const double ops_b = per_s(pb.actions, pb.elapsed_ns);
  r.set("trace.overhead", ratio(ops_a, ops_b) - 1.0);

  if (!o.trace_dir.empty()) {
    const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".spans.tsv";
    if (rec.write_tsv(path, 2000)) r.line("spans written to " + path);
  }
  b.reset();

  // Layers this workload does not exercise record no work.
  for (const char* name :
       {"core.policy_parse_ms", "core.policy_check_ms",
        "core.policy_dfa_build_ms", "core.policy_load_ms",
        "fleet.vehicle_boot_ms", "fleet.rss_kb_per_vehicle",
        "fleet.apply_policy_ms", "fleet.health_probe_ms",
        "fleet.pushes_per_rollout", "fleet.ns_per_check", "fleet.rollout_s",
        "fleet.rollback_ms", "verify.gate_ms", "alloc.per_vehicle_boot"})
    r.set(name, 0);

  r.line(fmt("traced pass: %.0f actions, %.0f frames, %.0f transitions",
             static_cast<double>(pb.actions), static_cast<double>(pb.frames),
             static_cast<double>(pb.transitions)));
  r.line(fmt("untraced %.1f actions/s, traced %.1f actions/s", ops_a, ops_b));
  return r;
}

}  // namespace

RunResult run_ivi(const RunOptions& options, FrameMode mode) {
  return options.trace ? run_traced(options, mode) : run_timed(options, mode);
}

}  // namespace perfbench
