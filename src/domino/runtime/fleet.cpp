#include "domino/runtime/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "domino/report.h"
#include "domino/runtime/checkpoint.h"

#if !defined(_WIN32)
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace domino::runtime {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

long BackoffDelayMs(int next_attempt, long base_ms, long cap_ms) {
  if (next_attempt <= 1 || base_ms <= 0) return 0;
  long delay = base_ms;
  // next_attempt == 2 is the first retry: base * 2^0.
  for (int i = 2; i < next_attempt; ++i) {
    if (cap_ms > 0 && delay >= cap_ms) break;
    if (delay > std::numeric_limits<long>::max() / 2) {
      delay = std::numeric_limits<long>::max();
      break;
    }
    delay *= 2;
  }
  if (cap_ms > 0) delay = std::min(delay, cap_ms);
  return delay;
}

std::vector<std::string> ChildArgv(const FleetOptions& fleet,
                                   const SessionSpec& spec,
                                   const LiveOptions& o,
                                   const std::string& fence_lease,
                                   std::uint64_t fence_token) {
  std::vector<std::string> args = {fleet.exec_path, "live", spec.dataset_dir,
                                   "--state", spec.state_dir, "--quiet"};
  const auto add = [&args](const char* flag, const std::string& value) {
    args.push_back(flag);
    args.push_back(value);
  };
  if (o.max_backlog_windows > 0) {
    add("--max-backlog", std::to_string(o.max_backlog_windows));
  }
  if (o.chaos_crash_after > 0) {
    add("--chaos-crash", std::to_string(o.chaos_crash_after));
  }
  if (o.chaos_fail_after > 0) {
    add("--chaos-fail", std::to_string(o.chaos_fail_after));
  }
  if (o.chaos_wedge_after > 0) {
    add("--chaos-wedge", std::to_string(o.chaos_wedge_after));
  }
  if (o.disk_fault.kind != DiskFaultSpec::Kind::kNone) {
    const char* kind =
        o.disk_fault.kind == DiskFaultSpec::Kind::kEnospc   ? "enospc"
        : o.disk_fault.kind == DiskFaultSpec::Kind::kEio    ? "eio"
        : o.disk_fault.kind == DiskFaultSpec::Kind::kRename ? "rename"
        : o.disk_fault.kind == DiskFaultSpec::Kind::kFsync  ? "fsync"
                                                            : "short";
    add("--chaos-disk",
        std::string(kind) + ":" + std::to_string(o.disk_fault.at_write));
  }
  if (!fence_lease.empty()) {
    add("--fence-lease", fence_lease);
    add("--fence-token", std::to_string(fence_token));
  }
  add("--max-records", std::to_string(o.input.max_records));
  args.insert(args.end(), fleet.child_args.begin(), fleet.child_args.end());
  return args;
}

long EffectiveBacklogWindows(long session_budget, long global_budget,
                             int workers, long tenant_budget,
                             int tenant_sessions) {
  // The shares are fixed at session setup (K workers, the tenant's session
  // count in the spec list) — never derived from runtime concurrency — so
  // the budget a session runs with, and therefore what it sheds, is a pure
  // function of the fleet configuration.
  long best = 0;
  auto consider = [&best](long budget) {
    if (budget <= 0) return;
    if (best == 0 || budget < best) best = budget;
  };
  consider(session_budget);
  if (global_budget > 0) {
    consider(std::max(1L, global_budget / std::max(1, workers)));
  }
  if (tenant_budget > 0) {
    consider(std::max(1L, tenant_budget / std::max(1, tenant_sessions)));
  }
  return best;
}

double LatencyPercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * n));
  if (rank > 0) --rank;
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}

namespace {

const char* IsolateName(IsolationMode m) {
  return m == IsolationMode::kProcess ? "process" : "thread";
}

/// Best-effort progress of a session from the last good checkpoint in
/// `state_dir`: the summary of a process-isolation child (whose own summary
/// died with it) or the partial progress of a failed session. False (and
/// `out` untouched) when no readable checkpoint exists.
bool LoadProgressFromState(const std::string& state_dir, LiveSummary* out,
                           std::int64_t* checkpointed_to_us) {
  // An empty expected fingerprint accepts any config's checkpoint: this is
  // a read-only progress probe, not a resume, so mixing schedules is not a
  // risk. The checksum still rejects torn/corrupt files.
  LiveCheckpoint cp;
  std::string error;
  CheckpointFailure failure = CheckpointFailure::kNone;
  if (!LoadCheckpoint(state_dir + "/live.ckpt", /*expected_fingerprint=*/"",
                      &cp, &error, &failure, InputLimits{})) {
    return false;
  }
  LiveSummary sum;
  sum.polls = cp.poll_count;
  sum.windows = cp.windows;
  sum.chains = cp.chains;
  sum.insufficient_chains = cp.insufficient;
  sum.resets = cp.resets;
  sum.checkpoints = cp.checkpoints_written;
  for (const ShedRange& s : cp.shed) sum.shed_windows += s.windows;
  for (const StallState& s : cp.stalls) {
    if (s.stalled) ++sum.stalled_streams;
  }
  sum.chains_path = state_dir + "/chains.jsonl";
  *out = sum;
  *checkpointed_to_us = cp.next_begin.micros();
  return true;
}

/// What one attempt of one session produced.
struct AttemptResult {
  bool ok = false;
  bool cancelled = false;  ///< The wall-clock deadline fired.
  bool drained = false;    ///< The drain stopped this attempt (resumable).
  bool fenced = false;     ///< The session lease was stolen mid-attempt.
  std::string error;
  LiveSummary summary;  ///< Valid when ok (thread isolation only; process
                        ///< isolation reconstructs from the checkpoint).
  int exit_code = -1;
  int term_signal = 0;
};

}  // namespace

struct FleetSupervisor::Impl {
  std::vector<SessionSpec> specs;  ///< state_dir resolved.
  analysis::CausalGraph graph;
  FleetOptions fleet;
  LiveOptions live_base;  ///< Shared per-session config before budgets.
  std::vector<LiveOptions> session_opts;
  std::vector<int> session_max_attempts;
  /// Whether session i's attempt budget came from a tenant override (a
  /// SIGHUP tunables reload must not clobber those).
  std::vector<char> has_tenant_attempts;
  /// Tenant -> sessions admitted so far; the tenant backlog share of a
  /// dynamically admitted session uses the count at its admission time.
  std::map<std::string, int> tenant_sessions;
  int workers = 0;
  bool ran = false;

  struct SessionState {
    int attempts = 0;
    bool deadline_exceeded = false;
    bool admitted = false;  ///< Dequeued for a first attempt.
    bool terminal = false;
    /// When the session was first queued; retries keep it, so latency
    /// covers queue wait, every attempt and the backoffs between them.
    Clock::time_point queued_at{};
    double latency_s = 0;
    SessionOutcome outcome;
  };
  std::vector<SessionState> state;

  struct Task {
    std::size_t idx = 0;
    Clock::time_point not_before{};
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Task> queue;
  std::size_t open_sessions = 0;  ///< Sessions not yet terminal.
  bool done = false;
  bool no_more = false;  ///< No further AddSessions() will come.
  long failed_attempts = 0;  ///< Attempt failures observed (all causes).

  /// Drain request: polled by the dequeue loop (stop starting attempts),
  /// the process-isolation waitpid loop (SIGTERM the child), and handed to
  /// thread-isolation runners as LiveOptions::drain.
  std::atomic<bool> drain{false};
  /// Tunables that attempt runners read without the mutex (SIGHUP reload).
  std::atomic<double> deadline_s{0};
  std::atomic<long> grace_ms{5'000};

  /// Per-worker deadline slot, armed around each thread-isolation attempt
  /// and polled by the monitor thread. One attempt per worker at a time,
  /// so the worker's cancel token can be handed to the runner directly.
  struct WorkerSlot {
    std::atomic<bool> cancel{false};
    std::atomic<bool> armed{false};
    std::atomic<long long> deadline_ms{0};  ///< Clock epoch, milliseconds.
  };
  std::vector<std::unique_ptr<WorkerSlot>> slots;
  std::atomic<bool> monitor_stop{false};

  void WorkerLoop(int worker_id);
  AttemptResult RunAttemptThread(std::size_t idx, WorkerSlot& slot);
  AttemptResult RunAttemptProcess(std::size_t idx);
  void MonitorLoop();
  /// Appends one session (options, budgets, state slot, queue entry).
  /// Caller holds `mu` (or is the constructor). `tenant_sessions` must
  /// already count the batch this spec belongs to.
  void SetupSession(SessionSpec spec, const SessionChaos* chaos,
                    const SessionSeed* seed);
  void Note(const char* fmt, const std::string& dataset,
            const std::string& detail) const;
};

void FleetSupervisor::Impl::Note(const char* fmt, const std::string& dataset,
                                 const std::string& detail) const {
  if (fleet.quiet) return;
  std::fprintf(stderr, fmt, dataset.c_str(), detail.c_str());
}

FleetSupervisor::FleetSupervisor(std::vector<SessionSpec> specs,
                                 analysis::CausalGraph graph,
                                 LiveOptions live, FleetOptions fleet)
    : impl_(new Impl) {
  if (fleet.max_attempts < 1) {
    delete impl_;
    throw std::invalid_argument("fleet: max_attempts must be >= 1");
  }
  if (fleet.isolate == IsolationMode::kProcess && fleet.exec_path.empty()) {
    delete impl_;
    throw std::invalid_argument(
        "fleet: process isolation needs an exec path");
  }
#if defined(_WIN32)
  if (fleet.isolate == IsolationMode::kProcess) {
    delete impl_;
    throw std::invalid_argument(
        "fleet: process isolation is not supported on this platform");
  }
#endif
  if (fleet.seeds.size() > specs.size()) {
    delete impl_;
    throw std::invalid_argument("fleet: more seeds than sessions");
  }
  for (SessionSpec& s : specs) {
    if (s.state_dir.empty()) s.state_dir = DefaultStateDir(s.dataset_dir);
  }
  const auto hw = std::thread::hardware_concurrency();
  int workers = fleet.workers > 0
                    ? fleet.workers
                    : static_cast<int>(std::max(1u, hw));
  if (!fleet.dynamic) {
    // Batch mode: no point in more workers than sessions. A dynamic fleet
    // keeps the requested pool — sessions it has not discovered yet will
    // need the extra workers.
    workers = std::max(
        1, std::min<int>(workers,
                         static_cast<int>(
                             std::max<std::size_t>(1, specs.size()))));
  }
  workers = std::max(1, workers);
  workers_ = workers;

  impl_->graph = std::move(graph);
  impl_->workers = workers;
  impl_->live_base = std::move(live);
  impl_->no_more = !fleet.dynamic;
  impl_->deadline_s.store(fleet.session_deadline_s,
                          std::memory_order_relaxed);
  impl_->grace_ms.store(std::max(0L, fleet.drain_grace_ms),
                        std::memory_order_relaxed);
  impl_->fleet = std::move(fleet);

  // Slots exist for the life of the supervisor (not just Run()) so
  // CancelInFlight() is safe whenever a daemon thread calls it.
  for (int w = 0; w < workers; ++w) {
    impl_->slots.push_back(std::make_unique<Impl::WorkerSlot>());
  }

  // Tenant session counts, for the per-tenant budget shares: the whole
  // initial batch counts before any session is set up (matching the
  // pre-daemon behaviour for static fleets).
  for (const SessionSpec& s : specs) ++impl_->tenant_sessions[s.tenant];
  impl_->session_opts.reserve(specs.size());
  impl_->session_max_attempts.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionChaos* c =
        i < impl_->fleet.chaos.size() ? &impl_->fleet.chaos[i] : nullptr;
    const SessionSeed* seed =
        i < impl_->fleet.seeds.size() ? &impl_->fleet.seeds[i] : nullptr;
    impl_->SetupSession(std::move(specs[i]), c, seed);
  }
}

void FleetSupervisor::Impl::SetupSession(SessionSpec spec,
                                         const SessionChaos* chaos,
                                         const SessionSeed* seed) {
  LiveOptions o = live_base;
  const TenantBudget* tb = nullptr;
  if (auto it = fleet.tenants.find(spec.tenant); it != fleet.tenants.end()) {
    tb = &it->second;
  }
  o.max_backlog_windows = EffectiveBacklogWindows(
      live_base.max_backlog_windows, fleet.global_backlog_windows, workers,
      tb != nullptr ? tb->backlog_windows : 0, tenant_sessions[spec.tenant]);
  if (tb != nullptr && tb->has_input) o.input = tb->input;
  if (chaos != nullptr) {
    o.chaos_crash_after = chaos->crash_after;
    o.chaos_fail_after = chaos->fail_after;
    o.chaos_wedge_after = chaos->wedge_after;
    o.disk_fault = chaos->disk;
    if (fleet.isolate == IsolationMode::kThread && o.chaos_crash_after > 0) {
      // A real _Exit would take the whole fleet down with it, which is
      // the documented thread-isolation tradeoff — so in thread mode the
      // crash hook degrades to the fail hook and one --chaos spec drives
      // both isolation modes. The degrade applies only to fleet-scheduled
      // chaos: crash hooks already baked into the shared LiveOptions are
      // caller-owned (`domino live --chaos-crash` in a process-isolation
      // child IS the fault domain and must really _Exit).
      o.chaos_fail_after =
          o.chaos_fail_after > 0
              ? std::min(o.chaos_fail_after, o.chaos_crash_after)
              : o.chaos_crash_after;
      o.chaos_crash_after = 0;
    }
  }
  session_opts.push_back(std::move(o));
  session_max_attempts.push_back(tb != nullptr && tb->max_attempts > 0
                                     ? tb->max_attempts
                                     : fleet.max_attempts);
  has_tenant_attempts.push_back(
      tb != nullptr && tb->max_attempts > 0 ? 1 : 0);

  const std::size_t idx = state.size();
  state.emplace_back();
  SessionState& st = state.back();
  if (seed != nullptr && seed->terminal) {
    // Manifest-restored terminal outcome: reported verbatim, never re-run
    // — this is what makes the restarted daemon's final report
    // byte-identical to an undisturbed run's.
    st.terminal = true;
    st.outcome = seed->outcome;
    st.attempts = seed->outcome.attempts;
    st.deadline_exceeded = seed->outcome.deadline_exceeded;
  } else {
    if (seed != nullptr) st.attempts = seed->attempts;
    st.queued_at = Clock::now();
    queue.push_back(Task{idx, st.queued_at});
    ++open_sessions;
  }
  st.outcome.dataset_dir = spec.dataset_dir;
  st.outcome.tenant = spec.tenant;
  specs.push_back(std::move(spec));
}

FleetSupervisor::~FleetSupervisor() { delete impl_; }

const LiveOptions& FleetSupervisor::session_options(std::size_t idx) const {
  return impl_->session_opts.at(idx);
}

AttemptResult FleetSupervisor::Impl::RunAttemptThread(std::size_t idx,
                                                      WorkerSlot& slot) {
  AttemptResult res;
  slot.cancel.store(false, std::memory_order_relaxed);
  const double dl_s = deadline_s.load(std::memory_order_relaxed);
  if (dl_s > 0) {
    const auto now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    slot.deadline_ms.store(now_ms + static_cast<long long>(dl_s * 1000.0),
                           std::memory_order_relaxed);
    slot.armed.store(true, std::memory_order_release);
  }
  LiveOptions o = session_opts[idx];
  o.cancel = &slot.cancel;
  o.drain = &drain;
  if (fleet.shard_binding) {
    // Fencing is bound per attempt, not per session: a lease re-claimed
    // after a takeover carries a fresh token.
    std::string lease_dir;
    std::uint64_t token = 0;
    if (fleet.shard_binding(specs[idx].dataset_dir, &lease_dir, &token)) {
      o.fence_lease_dir = lease_dir;
      o.fence_token = token;
    }
  }
  try {
    LiveRunner runner(specs[idx].dataset_dir, specs[idx].state_dir, graph, o);
    res.summary = runner.Run();
    if (res.summary.drained) {
      res.drained = true;
    } else {
      res.ok = true;
    }
  } catch (const std::exception& e) {
    res.error = e.what();
    res.fenced = res.error.rfind("fenced", 0) == 0;
  } catch (...) {
    res.error = "unknown error";
  }
  slot.armed.store(false, std::memory_order_release);
  res.cancelled = slot.cancel.load(std::memory_order_relaxed);
  return res;
}

AttemptResult FleetSupervisor::Impl::RunAttemptProcess(std::size_t idx) {
  AttemptResult res;
#if defined(_WIN32)
  res.error = "process isolation unsupported";
  return res;
#else
  const SessionSpec& spec = specs[idx];
  std::error_code ec;
  fs::create_directories(spec.state_dir, ec);

  // Child argv and the log path are fully materialised before fork():
  // between fork and exec in a multithreaded parent only async-signal-safe
  // calls are allowed (open/dup2/execv/_exit — no allocation).
  std::string lease_dir;
  std::uint64_t token = 0;
  if (fleet.shard_binding &&
      !fleet.shard_binding(spec.dataset_dir, &lease_dir, &token)) {
    lease_dir.clear();
  }
  std::vector<std::string> args =
      ChildArgv(fleet, spec, session_opts[idx], lease_dir, token);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log_path = spec.state_dir + "/child.log";

  const pid_t pid = ::fork();
  if (pid < 0) {
    res.error = "fork failed";
    return res;
  }
  if (pid == 0) {
    // Child: stdout/stderr to the per-session log, then become `domino
    // live`. Async-signal-safe calls only until execv.
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      if (log_fd > 2) ::close(log_fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  const double dl_s = deadline_s.load(std::memory_order_relaxed);
  const bool have_deadline = dl_s > 0;
  const auto deadline =
      Clock::now() +
      std::chrono::milliseconds(static_cast<long long>(dl_s * 1000.0));
  int status = 0;
  bool killed = false;
  bool termed = false;  ///< We SIGTERMed the child for a graceful drain.
  auto drain_kill_at = Clock::time_point::max();
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      res.error = "waitpid failed";
      return res;
    }
    const auto now = Clock::now();
    if (!termed && !killed && drain.load(std::memory_order_relaxed)) {
      // Graceful drain: SIGTERM asks the child to write a drain checkpoint
      // and exit 75 (EX_TEMPFAIL = resumable); SIGKILL after the grace
      // period covers wedged children — they resume from their last
      // periodic checkpoint instead.
      ::kill(pid, SIGTERM);
      termed = true;
      drain_kill_at = now + std::chrono::milliseconds(
                                grace_ms.load(std::memory_order_relaxed));
    }
    if (termed && !killed && now >= drain_kill_at) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
    if (!termed && !killed && have_deadline && now >= deadline) {
      ::kill(pid, SIGKILL);
      killed = true;
      res.cancelled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  if (WIFEXITED(status)) {
    res.exit_code = WEXITSTATUS(status);
    if (res.exit_code == 0) {
      res.ok = true;
    } else if (res.exit_code == 75) {
      // EX_TEMPFAIL: the child drained (whether we SIGTERMed it or the
      // operator's terminal delivered the signal to the whole group).
      res.drained = true;
    } else if (res.exit_code == 76) {
      // The child's fencing check fired: its lease was stolen and it
      // stopped without touching state (see CmdLive's exit contract).
      res.fenced = true;
      res.error = "fenced: session lease was stolen (child exit 76)";
    } else {
      res.error = "child exited with code " + std::to_string(res.exit_code);
    }
  } else if (WIFSIGNALED(status)) {
    res.term_signal = WTERMSIG(status);
    if (termed) {
      res.drained = true;
    } else {
      res.error = res.cancelled ? "live: cancelled (session deadline exceeded)"
                                : "child killed by signal " +
                                      std::to_string(res.term_signal);
    }
  } else {
    res.error = "child ended abnormally";
  }
  return res;
#endif
}

void FleetSupervisor::Impl::WorkerLoop(int worker_id) {
  WorkerSlot& slot = *slots[static_cast<std::size_t>(worker_id)];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu);
      for (;;) {
        if (done) return;
        if (drain.load(std::memory_order_relaxed)) {
          // Drain: nothing queued gets another attempt. Suspend it all and
          // wait for the in-flight attempts (draining on other workers) to
          // settle. A queued suspension costs no attempt: the session never
          // started, so the restarted daemon re-queues it with the same
          // counter an undisturbed run would have had.
          for (const Task& t : queue) {
            SessionState& st = state[t.idx];
            if (st.terminal) continue;
            st.terminal = true;
            st.outcome.suspended = true;
            st.outcome.attempts = st.attempts;
            --open_sessions;
          }
          queue.clear();
          if (open_sessions == 0) {
            done = true;
            cv.notify_all();
            return;
          }
          cv.wait(lk);
          continue;
        }
        const auto now = Clock::now();
        std::size_t best = queue.size();
        auto earliest = Clock::time_point::max();
        for (std::size_t q = 0; q < queue.size(); ++q) {
          if (queue[q].not_before <= now) {
            // Lowest session index wins among the eligible: the admission
            // order (and with it which sessions a scarce worker pool gets
            // to first) is spec order, not wake-up luck.
            if (best == queue.size() ||
                queue[q].idx < queue[best].idx) {
              best = q;
            }
          } else {
            earliest = std::min(earliest, queue[q].not_before);
          }
        }
        if (best < queue.size()) {
          task = queue[best];
          queue.erase(queue.begin() + static_cast<long>(best));
          break;
        }
        if (earliest == Clock::time_point::max()) {
          cv.wait(lk);
        } else {
          cv.wait_until(lk, earliest);
        }
      }
      SessionState& st = state[task.idx];
      st.admitted = true;
      ++st.attempts;
    }

    const AttemptResult res =
        fleet.isolate == IsolationMode::kProcess
            ? RunAttemptProcess(task.idx)
            : RunAttemptThread(task.idx, slot);

    std::unique_lock<std::mutex> lk(mu);
    const bool draining = drain.load(std::memory_order_relaxed);
    SessionState& st = state[task.idx];
    SessionOutcome& out = st.outcome;
    out.attempts = st.attempts;
    if (res.cancelled && !draining) st.deadline_exceeded = true;
    out.deadline_exceeded = st.deadline_exceeded;
    out.exit_code = res.exit_code;
    out.term_signal = res.term_signal;

    bool terminal = false;
    if (res.ok) {
      out.ok = true;
      out.error.clear();
      if (fleet.isolate == IsolationMode::kProcess) {
        // The child's summary died with the child; its final checkpoint
        // (written by FinishRun) carries the same progress counters.
        LiveSummary sum;
        std::int64_t to_us = 0;
        if (LoadProgressFromState(specs[task.idx].state_dir, &sum, &to_us)) {
          out.summary = sum;
          out.checkpointed_to_us = to_us;
        }
        out.summary.dataset_dir = specs[task.idx].dataset_dir;
        out.summary.resumed = st.attempts > 1;
        out.summary.report_path =
            specs[task.idx].state_dir + "/live_report.json";
      } else {
        out.summary = res.summary;
      }
      terminal = true;
    } else if (res.drained || (res.cancelled && draining)) {
      // The drain stopped this attempt (either the runner saw the drain
      // token and checkpointed, or the post-grace cancel/SIGKILL cut a
      // wedged one short). It was never a *failed* attempt: hand the
      // counter back so the restarted daemon's re-run consumes the attempt
      // number an undisturbed run would have used. (Chaos hooks fire on
      // fresh runs only, so the replayed attempt reproduces any fault the
      // interrupted one would have hit.)
      --st.attempts;
      out.attempts = st.attempts;
      out.suspended = true;
      out.error.clear();
      terminal = true;
    } else if (res.fenced) {
      // The session's lease was stolen mid-attempt: another box presumed
      // us dead and took over from our last checkpoint. Terminal here —
      // never retried (the work is finishing elsewhere), never counted as
      // a fleet failure, and the fencing check guarantees this attempt
      // published nothing after the loss.
      out.fenced = true;
      out.ok = false;
      out.error = res.error;
      terminal = true;
      Note("serve[%s]: FENCED (taken over by another box): %s\n",
           specs[task.idx].dataset_dir, res.error);
    } else {
      out.error = res.error;
      ++failed_attempts;
      const int budget = session_max_attempts[task.idx];
      if (draining) {
        // A real failure racing the drain: keep the consumed attempt (the
        // chaos schedule will reproduce it on replay) and suspend instead
        // of re-queueing — no new attempts start during a drain.
        out.suspended = true;
        terminal = true;
        Note("serve[%s]: suspended by drain after failed attempt: %s\n",
             specs[task.idx].dataset_dir, res.error);
      } else if (st.attempts < budget) {
        const long delay = BackoffDelayMs(st.attempts + 1, fleet.backoff_ms,
                                          fleet.backoff_cap_ms);
        queue.push_back(Task{task.idx,
                             Clock::now() + std::chrono::milliseconds(delay)});
        Note("serve[%s]: attempt failed, retrying: %s\n",
             specs[task.idx].dataset_dir, res.error);
      } else {
        out.ok = false;
        out.quarantined = true;
        terminal = true;
        Note("serve[%s]: QUARANTINED: %s\n", specs[task.idx].dataset_dir,
             res.error);
      }
    }

    if (terminal) {
      st.terminal = true;
      st.latency_s =
          std::chrono::duration<double>(Clock::now() - st.queued_at)
              .count();
      if (!out.ok || out.summary.checkpoints > 0) {
        // Best-effort partial/final progress from the last checkpoint (for
        // a failed session this is what the operator gets instead of
        // nothing — ISSUE 8 satellite 2).
        if (!out.ok) {
          LiveSummary sum;
          std::int64_t to_us = 0;
          if (LoadProgressFromState(specs[task.idx].state_dir, &sum,
                                    &to_us)) {
            sum.dataset_dir = specs[task.idx].dataset_dir;
            out.summary = sum;
            out.has_partial = true;
            out.checkpointed_to_us = to_us;
          }
        }
      }
      if (out.ok && fleet.gc_checkpoints &&
          (!fleet.gc_guard || fleet.gc_guard(specs[task.idx]))) {
        // Bounded state: a completed session's checkpoint has served its
        // purpose (report + chain log remain). Quarantined and suspended
        // sessions keep theirs — postmortem and resume respectively. In
        // shard mode the gc_guard additionally requires a current lease,
        // so a takeover box can never race this deletion.
        std::error_code gc_ec;
        fs::remove(specs[task.idx].state_dir + "/live.ckpt", gc_ec);
        // Staging files carry process-unique suffixes (AtomicTempSuffix),
        // so sweep by prefix rather than one fixed name.
        for (const auto& e :
             fs::directory_iterator(specs[task.idx].state_dir, gc_ec)) {
          const std::string name = e.path().filename().string();
          if (name.rfind("live.ckpt.tmp", 0) == 0) fs::remove(e.path(), gc_ec);
        }
      }
      --open_sessions;
      if (open_sessions == 0 &&
          (no_more || drain.load(std::memory_order_relaxed))) {
        done = true;
      }
    }
    // The terminal hook runs outside the supervisor lock: it does disk I/O
    // (done marker + lease release) and must not stall the other workers.
    const bool call_terminal = terminal && static_cast<bool>(fleet.on_terminal);
    SessionSpec terminal_spec;
    SessionOutcome terminal_out;
    if (call_terminal) {
      terminal_spec = specs[task.idx];
      terminal_out = st.outcome;
    }
    cv.notify_all();
    lk.unlock();
    if (call_terminal) fleet.on_terminal(terminal_spec, terminal_out);
  }
}

void FleetSupervisor::Impl::MonitorLoop() {
  // Thread-isolation deadlines: poll every armed worker slot and flip its
  // cancel token once the wall-clock budget is spent. The runner notices
  // at its next poll boundary (or inside its wedge/sleep loops) and aborts
  // the attempt with a "cancelled" error, which escalates into the normal
  // retry/quarantine path.
  while (!monitor_stop.load(std::memory_order_acquire)) {
    const auto now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    for (auto& slot : slots) {
      if (slot->armed.load(std::memory_order_acquire) &&
          now_ms >= slot->deadline_ms.load(std::memory_order_relaxed)) {
        slot->cancel.store(true, std::memory_order_relaxed);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

FleetReport FleetSupervisor::Run() {
  Impl& im = *impl_;
  if (im.ran) throw std::logic_error("fleet: Run() already called");
  im.ran = true;

  bool skip_pool = false;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    // Session state and the queue were built by the constructor (and any
    // pre-Run AddSessions). All-terminal seeds leave nothing open.
    if (im.open_sessions == 0 && im.no_more) im.done = true;
    skip_pool = im.state.empty() && im.no_more;
  }

  if (!skip_pool) {
    std::thread monitor;
    if (im.fleet.isolate == IsolationMode::kThread &&
        (im.fleet.session_deadline_s > 0 || im.fleet.dynamic)) {
      // Dynamic fleets always run the monitor: a SIGHUP tunables reload
      // may introduce a deadline after startup.
      monitor = std::thread([&im] { im.MonitorLoop(); });
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(im.workers));
    for (int w = 0; w < im.workers; ++w) {
      pool.emplace_back([&im, w] { im.WorkerLoop(w); });
    }
    for (std::thread& t : pool) t.join();
    im.monitor_stop.store(true, std::memory_order_release);
    if (monitor.joinable()) monitor.join();
  }

  FleetReport report;
  std::lock_guard<std::mutex> lk(im.mu);
  report.workers = im.workers;
  report.max_attempts = im.fleet.max_attempts;
  report.global_backlog_windows = im.fleet.global_backlog_windows;
  report.isolate = im.fleet.isolate;
  report.drained = im.drain.load(std::memory_order_relaxed);
  for (Impl::SessionState& st : im.state) {
    report.outcomes.push_back(std::move(st.outcome));
    report.session_latency_s.push_back(st.latency_s);
  }
  for (const SessionOutcome& o : report.outcomes) {
    report.total_attempts += o.attempts;
    if (o.ok) {
      ++report.completed;
      if (o.attempts > 1) ++report.recovered;
    }
    if (o.quarantined) ++report.quarantined;
    if (o.suspended) ++report.suspended;
    if (o.fenced) ++report.fenced;
    report.total_windows += o.summary.windows;
    report.total_chains += o.summary.chains;
    report.total_shed_windows += o.summary.shed_windows;
  }
  return report;
}

void FleetSupervisor::AddSessions(std::vector<SessionSpec> specs,
                                  std::vector<SessionChaos> chaos) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  if (im.done || im.no_more || im.drain.load(std::memory_order_relaxed)) {
    return;
  }
  for (SessionSpec& s : specs) {
    if (s.state_dir.empty()) s.state_dir = DefaultStateDir(s.dataset_dir);
  }
  // The whole batch counts towards the tenant shares before any of it is
  // set up, mirroring the constructor's treatment of the initial batch.
  for (const SessionSpec& s : specs) ++im.tenant_sessions[s.tenant];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionChaos* c = i < chaos.size() ? &chaos[i] : nullptr;
    im.SetupSession(std::move(specs[i]), c, nullptr);
  }
  im.cv.notify_all();
}

void FleetSupervisor::NoMoreSessions() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  im.no_more = true;
  if (im.open_sessions == 0) im.done = true;
  im.cv.notify_all();
}

void FleetSupervisor::RequestDrain() {
  Impl& im = *impl_;
  im.drain.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(im.mu);
  im.cv.notify_all();
}

void FleetSupervisor::CancelInFlight() {
  for (auto& slot : impl_->slots) {
    slot->cancel.store(true, std::memory_order_relaxed);
  }
}

void FleetSupervisor::UpdateTunables(int max_attempts, long backoff_ms,
                                     long backoff_cap_ms,
                                     double session_deadline_s) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  if (max_attempts >= 1) {
    im.fleet.max_attempts = max_attempts;
    for (std::size_t i = 0; i < im.session_max_attempts.size(); ++i) {
      if (im.has_tenant_attempts[i] == 0) {
        im.session_max_attempts[i] = max_attempts;
      }
    }
  }
  if (backoff_ms > 0) im.fleet.backoff_ms = backoff_ms;
  if (backoff_cap_ms > 0) im.fleet.backoff_cap_ms = backoff_cap_ms;
  if (session_deadline_s > 0) {
    im.fleet.session_deadline_s = session_deadline_s;
    im.deadline_s.store(session_deadline_s, std::memory_order_relaxed);
  }
}

FleetSupervisor::Status FleetSupervisor::Snapshot() const {
  Impl& im = *impl_;
  Status s;
  std::lock_guard<std::mutex> lk(im.mu);
  s.known = static_cast<long>(im.state.size());
  for (const Impl::Task& t : im.queue) {
    ++s.pending;
    if (im.state[t.idx].attempts > 0) ++s.retrying;
  }
  for (std::size_t i = 0; i < im.state.size(); ++i) {
    const Impl::SessionState& st = im.state[i];
    if (st.terminal) {
      const SessionOutcome& o = st.outcome;
      if (o.ok) ++s.completed;
      if (o.quarantined) ++s.quarantined;
      if (o.suspended) ++s.suspended;
      if (o.fenced) ++s.fenced;
      s.total_windows += o.summary.windows;
      s.total_chains += o.summary.chains;
      s.total_shed_windows += o.summary.shed_windows;
    } else if (st.admitted) {
      s.open_state_dirs.push_back(im.specs[i].state_dir);
    }
  }
  s.active = static_cast<long>(im.open_sessions) - s.pending;
  s.failed_attempts = im.failed_attempts;
  s.draining = im.drain.load(std::memory_order_relaxed);
  return s;
}

std::string FormatFleetReportText(const FleetReport& report) {
  std::ostringstream os;
  os << "fleet: " << report.outcomes.size() << " sessions over "
     << report.workers << " workers (" << IsolateName(report.isolate)
     << " isolation, max " << report.max_attempts << " attempts";
  if (report.global_backlog_windows > 0) {
    os << ", global backlog " << report.global_backlog_windows;
  }
  os << ")\n";
  os << "  completed " << report.completed << " (" << report.recovered
     << " recovered), quarantined " << report.quarantined;
  if (report.suspended > 0) os << ", suspended " << report.suspended;
  if (report.fenced > 0) os << ", fenced " << report.fenced;
  os << ", " << report.total_attempts << " attempts total";
  if (report.drained) os << " [drained]";
  os << "\n";
  os << "  windows " << report.total_windows << ", chains "
     << report.total_chains << ", shed " << report.total_shed_windows
     << "\n";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "  session latency p50 %.3fs p99 %.3fs\n",
                LatencyPercentile(report.session_latency_s, 50),
                LatencyPercentile(report.session_latency_s, 99));
  os << buf;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const SessionOutcome& o = report.outcomes[i];
    os << "  [" << i << "] "
       << (o.ok            ? "ok         "
           : o.quarantined ? "QUARANTINED"
           : o.suspended   ? "suspended  "
           : o.fenced      ? "fenced     "
                           : "failed   ")
       << " " << o.dataset_dir;
    if (!o.tenant.empty()) os << " tenant=" << o.tenant;
    os << " attempts=" << o.attempts;
    if (o.ok || o.has_partial) {
      os << " windows=" << o.summary.windows
         << " chains=" << o.summary.chains;
      if (o.summary.shed_windows > 0) os << " shed=" << o.summary.shed_windows;
      if (o.has_partial) os << " (partial, up to checkpoint)";
    }
    if (o.deadline_exceeded) os << " [deadline exceeded]";
    if (o.term_signal != 0) os << " [signal " << o.term_signal << "]";
    if (!o.error.empty()) os << "\n        error: " << o.error;
    os << "\n";
  }
  return os.str();
}

std::string BuildFleetReportJson(const FleetReport& report) {
  using analysis::JsonEscape;
  // Only wall-clock-free, schedule-invariant quantities: this document is
  // byte-compared between two runs of the same fleet command, whatever the
  // worker interleaving. (Notably absent: session latencies — those are
  // text-report only.)
  std::ostringstream os;
  os << "{\n";
  os << "  \"fleet\": {\"sessions\": " << report.outcomes.size()
     << ", \"workers\": " << report.workers
     << ", \"max_attempts\": " << report.max_attempts
     << ", \"global_backlog_windows\": " << report.global_backlog_windows
     << ", \"isolate\": \"" << IsolateName(report.isolate) << "\"},\n";
  os << "  \"counts\": {\"completed\": " << report.completed
     << ", \"recovered\": " << report.recovered
     << ", \"quarantined\": " << report.quarantined
     << ", \"suspended\": " << report.suspended
     << ", \"fenced\": " << report.fenced
     << ", \"total_attempts\": " << report.total_attempts << "},\n";
  os << "  \"progress\": {\"windows\": " << report.total_windows
     << ", \"chains\": " << report.total_chains
     << ", \"shed_windows\": " << report.total_shed_windows << "},\n";
  os << "  \"sessions\": [";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const SessionOutcome& o = report.outcomes[i];
    os << (i == 0 ? "" : ",") << "\n    {\"dataset\": \""
       << JsonEscape(o.dataset_dir) << "\", \"tenant\": \""
       << JsonEscape(o.tenant) << "\", \"ok\": " << (o.ok ? "true" : "false")
       << ", \"quarantined\": " << (o.quarantined ? "true" : "false")
       << ", \"suspended\": " << (o.suspended ? "true" : "false")
       << ", \"fenced\": " << (o.fenced ? "true" : "false")
       << ", \"deadline_exceeded\": "
       << (o.deadline_exceeded ? "true" : "false")
       << ", \"attempts\": " << o.attempts
       << ", \"exit_code\": " << o.exit_code
       << ", \"term_signal\": " << o.term_signal
       << ", \"partial\": " << (o.has_partial ? "true" : "false")
       << ", \"windows\": " << o.summary.windows
       << ", \"chains\": " << o.summary.chains
       << ", \"insufficient_chains\": " << o.summary.insufficient_chains
       << ", \"shed_windows\": " << o.summary.shed_windows
       << ", \"checkpoints\": " << o.summary.checkpoints
       << ", \"checkpointed_to_us\": " << o.checkpointed_to_us
       << ", \"error\": \"" << JsonEscape(o.error) << "\"}";
  }
  os << (report.outcomes.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace domino::runtime
