// Fault-domain fleet supervision — the `domino serve` runtime.
//
// One analysis box watches a fleet of cells: M session directories, far
// more than the machine has cores or memory for all at once. The
// FleetSupervisor runs them over a bounded pool of K shared-nothing
// workers, treating every session as an isolated *fault domain*:
//
//  * Retry from checkpoint. A failed session is re-queued with a
//    deterministic capped exponential backoff and resumes from its last
//    good checkpoint (the PR-4 kill/resume guarantee: the retried run's
//    chains.jsonl is byte-identical to an undisturbed one). After
//    `max_attempts` failures the session is quarantined — recorded with
//    its attempt count and partial progress, never retried again, never
//    allowed to wedge a worker forever.
//
//  * Wall-clock deadlines. The per-stream watchdog (watchdog.h) works in
//    trace time and cannot see a session that stops consuming wall time
//    productively (a wedged filesystem, a live feed that never ends). A
//    fleet-level `session_deadline` cancels such an attempt — cooperative
//    cancel token in thread isolation, SIGKILL in process isolation — and
//    the cancel escalates into the same retry/backoff/quarantine path.
//
//  * Admission control & backpressure. `global_backlog_windows` is a
//    fleet-wide in-flight window budget, divided over the K workers and
//    intersected with per-tenant and per-session budgets; each admitted
//    session runs with the resulting `max_backlog_windows`, so overload
//    sheds windows as explicit "degraded" ranges (live.h backpressure)
//    instead of OOMing the box. Per-tenant InputLimits bound what any one
//    tenant's hostile or bloated dataset may allocate.
//
//  * Crash containment. In `kProcess` isolation each attempt runs in a
//    forked child executing `<exec_path> live <dir> ...`; a SIGSEGV or
//    SIGKILL is recorded (exit status / signal in SessionOutcome) and
//    retried from the checkpoint without taking down the fleet. Thread
//    isolation is cheaper but shares one address space — a real crash
//    there kills everything, which is exactly the tradeoff documented in
//    DESIGN.md §13.
//
// Determinism: outcomes are reported in spec order whatever the worker
// interleaving, all analysis outputs are pure functions of file content
// (live.h), and BuildFleetReportJson contains only wall-clock-free fields
// — two runs over the same datasets and fault schedule are byte-identical.
// Wall-clock session latency (p50/p99) appears in the *text* report only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/diskfault.h"
#include "common/parse.h"
#include "domino/graph.h"
#include "domino/runtime/live.h"

namespace domino::runtime {

/// One session of a fleet: a dataset directory, its state directory and
/// the tenant whose budgets it draws on.
struct SessionSpec {
  std::string dataset_dir;
  std::string state_dir;  ///< Empty = DefaultStateDir(dataset_dir).
  std::string tenant;     ///< Budget group ("" = untenanted).
};

/// The supervision record of one session: its terminal state, the attempts
/// it consumed and the progress it made.
struct SessionOutcome {
  std::string dataset_dir;
  std::string tenant;
  bool ok = false;
  std::string error;    ///< Why the session failed (ok == false).
  LiveSummary summary;  ///< Full summary when ok; best-effort partial
                        ///< progress reconstructed from the last good
                        ///< checkpoint when not (see has_partial).
  int attempts = 0;        ///< Attempts consumed, including the final one.
  bool quarantined = false;       ///< Attempt budget exhausted.
  bool deadline_exceeded = false;  ///< Any attempt hit the wall-clock deadline.
  int exit_code = -1;      ///< Process isolation: child exit code (-1 = n/a).
  int term_signal = 0;     ///< Process isolation: signal that killed the child.
  bool has_partial = false;  ///< `summary` carries checkpoint-derived partial
                             ///< progress for a failed session.
  /// Graceful drain stopped this session mid-run (fleet daemon mode). Not
  /// a failure: the checkpoint is intact and a restarted fleet resumes it
  /// to the same final outcome an undisturbed run would have produced.
  bool suspended = false;
  /// Sharded fleet mode: the session's lease was stolen mid-attempt (this
  /// box was presumed dead) and the fencing check stopped every further
  /// write. Terminal here but not a fleet failure — the new owner finishes
  /// the work; no published file was touched by the fenced attempt.
  bool fenced = false;
  /// Trace time the last good checkpoint covers (µs since epoch; 0 = none).
  std::int64_t checkpointed_to_us = 0;
};

/// How a session attempt is executed.
enum class IsolationMode {
  kThread,   ///< Attempt runs on the worker thread (shared address space).
  kProcess,  ///< Attempt runs in a forked+exec'd child (crash containment).
};

/// Resource budget for one tenant (SessionSpec::tenant). Zero/unset fields
/// inherit the fleet-wide defaults.
struct TenantBudget {
  /// In-flight window budget shared by this tenant's sessions (divided
  /// evenly across them). 0 = no tenant cap.
  long backlog_windows = 0;
  /// Attempt budget override for this tenant's sessions. 0 = inherit.
  int max_attempts = 0;
  /// Parse/ingest resource budgets for this tenant's datasets.
  InputLimits input{};
  /// Whether `input` above overrides the fleet-wide InputLimits.
  bool has_input = false;
};

/// Deterministic chaos hooks for one session (testing / run_fleet.sh).
/// All fire on a *fresh* (non-resumed) run only, so a retried attempt
/// resumes from the checkpoint and completes — see LiveOptions.
struct SessionChaos {
  long crash_after = 0;  ///< _Exit(137) after Nth checkpoint (process
                         ///< isolation; degrades to fail_after in threads).
  long fail_after = 0;   ///< Throw after Nth checkpoint.
  long wedge_after = 0;  ///< Stop progressing after Nth checkpoint.
  /// Environmental fault: fail the session's Nth guarded durability write
  /// (checkpoint/report) with ENOSPC/EIO/a short write (diskfault.h). The
  /// failed write escalates to an attempt failure — retry/quarantine path.
  DiskFaultSpec disk{};
};

/// Pre-recorded state for one session, used when a restarted daemon seeds
/// its supervisor from a fleet manifest (daemon.h). Parallel to the spec
/// vector. A terminal seed's outcome is reported verbatim without re-running
/// the session; a non-terminal seed pre-loads the attempt counter so the
/// resumed run's final attempt counts match an undisturbed run's.
struct SessionSeed {
  bool terminal = false;
  int attempts = 0;
  SessionOutcome outcome;  ///< Meaningful when terminal.
};

struct FleetOptions {
  /// Worker pool size. 0 = min(#sessions, hardware concurrency).
  int workers = 0;
  /// Per-session attempt budget; quarantine after exhaustion. Must be >=1.
  int max_attempts = 3;
  /// Retry backoff: attempt n+1 starts backoff_ms * 2^(n-1) ms after
  /// attempt n failed, capped at backoff_cap_ms.
  long backoff_ms = 200;
  long backoff_cap_ms = 5'000;
  /// Wall-clock budget per attempt; exceeded = cancel-and-retry. 0 = off.
  double session_deadline_s = 0;
  /// Fleet-wide in-flight window-backlog budget, divided over the workers
  /// and intersected with per-session / per-tenant budgets. 0 = off.
  long global_backlog_windows = 0;
  IsolationMode isolate = IsolationMode::kThread;
  /// Binary executed for process isolation (the `domino` CLI). Required
  /// when isolate == kProcess.
  std::string exec_path;
  /// Extra argv appended to every process-isolation child command (the CLI
  /// forwards the user's session flags here verbatim so child fingerprints
  /// match across attempts). ChildArgv() adds the per-session flags.
  std::vector<std::string> child_args;
  /// Per-tenant budgets, keyed by SessionSpec::tenant ("" = untenanted).
  std::map<std::string, TenantBudget> tenants;
  /// Per-session chaos hooks, parallel to the spec vector (may be shorter
  /// or empty = no chaos).
  std::vector<SessionChaos> chaos;
  /// Manifest seeds, parallel to the spec vector (may be shorter or empty
  /// = every session starts cold). See SessionSeed.
  std::vector<SessionSeed> seeds;
  /// Daemon mode: Run() keeps the pool alive for sessions admitted later
  /// via AddSessions() and terminates only after NoMoreSessions() (or a
  /// drain). Also uncaps the worker count from the *initial* session count,
  /// since more sessions may arrive.
  bool dynamic = false;
  /// Delete a session's checkpoint once it completes successfully (its
  /// report and chain log remain). Quarantined sessions always keep theirs
  /// for postmortem. Off by default: standalone `domino live` documents
  /// resume-across-dataset-growth, which needs the final checkpoint.
  bool gc_checkpoints = false;
  /// Grace period between SIGTERM and SIGKILL for process-isolation
  /// children during a drain.
  long drain_grace_ms = 5'000;
  /// Suppress per-attempt progress lines on stderr.
  bool quiet = true;

  // -- Sharded fleet hooks (shard.h; all optional) --------------------------

  /// Maps a dataset to its lease binding for attempt fencing. Returning
  /// true fills the lease dir + fencing token the attempt must prove before
  /// every durable write (LiveOptions::fence_lease_dir / fence_token, or
  /// --fence-lease/--fence-token on a process-isolation child). Returning
  /// false runs the attempt unfenced. Called per attempt, so a re-claimed
  /// session carries its fresh token.
  std::function<bool(const std::string& dataset_dir, std::string* lease_dir,
                     std::uint64_t* token)>
      shard_binding;
  /// Invoked (outside all supervisor locks) right after a session reaches a
  /// terminal state — the daemon publishes the shard done marker and
  /// releases the lease here.
  std::function<void(const SessionSpec&, const SessionOutcome&)> on_terminal;
  /// Extra gate on checkpoint GC: deletion happens only if this returns
  /// true (shard mode: we still hold an unfenced lease on the session).
  /// Null = GC ungated.
  std::function<bool(const SessionSpec&)> gc_guard;
};

struct FleetReport {
  std::vector<SessionOutcome> outcomes;  ///< Spec order, always complete.
  int workers = 0;
  int max_attempts = 0;
  long global_backlog_windows = 0;
  IsolationMode isolate = IsolationMode::kThread;

  // Aggregates (derived from outcomes; wall-clock-free).
  long completed = 0;    ///< ok sessions.
  long recovered = 0;    ///< ok after >1 attempt.
  long quarantined = 0;  ///< attempt budget exhausted.
  long suspended = 0;    ///< drained mid-run (resumable via manifest).
  long fenced = 0;       ///< lease stolen mid-attempt (finished elsewhere).
  bool drained = false;  ///< The run ended because of a drain request.
  long total_attempts = 0;
  long total_windows = 0;
  long total_chains = 0;
  long total_shed_windows = 0;

  /// End-to-end wall-clock latency per session (first queued to final
  /// outcome: queue wait, attempts and backoff included), spec order. Text
  /// report only — never part of the byte-compared JSON.
  std::vector<double> session_latency_s;
};

/// The argv of one process-isolation attempt of `spec` (state_dir
/// resolved) run with the effective options `o`: `<exec_path> live
/// <dataset> --state <dir> --quiet`, the per-session budgets and chaos
/// hooks, `--fence-lease`/`--fence-token` when `fence_lease` is non-empty,
/// then FleetOptions::child_args. Built in full before fork(), so the child
/// only calls async-signal-safe functions before it execs.
std::vector<std::string> ChildArgv(const FleetOptions& fleet,
                                   const SessionSpec& spec,
                                   const LiveOptions& o,
                                   const std::string& fence_lease,
                                   std::uint64_t fence_token);

/// Deterministic backoff schedule: delay before attempt `next_attempt`
/// (2-based; the first retry). base * 2^(next_attempt-2), capped.
long BackoffDelayMs(int next_attempt, long base_ms, long cap_ms);

/// The admission-control budget for one session: the smallest non-zero of
/// the session's own budget, the global budget's per-worker share, and the
/// tenant budget's per-session share. 0 = unlimited (all inputs 0).
long EffectiveBacklogWindows(long session_budget, long global_budget,
                             int workers, long tenant_budget,
                             int tenant_sessions);

/// Nearest-rank percentile (p in [0,100]) of a latency sample; 0 on empty.
double LatencyPercentile(std::vector<double> samples, double p);

/// Human-readable fleet summary, wall-clock latencies included.
std::string FormatFleetReportText(const FleetReport& report);

/// Stable machine-readable report. Contains only wall-clock-free fields:
/// byte-identical across reruns over the same datasets + fault schedule.
std::string BuildFleetReportJson(const FleetReport& report);

class FleetSupervisor {
 public:
  /// `graph` and `live` are the shared per-session configuration; every
  /// attempt gets its own copies (shared-nothing). Throws std::invalid_-
  /// argument on an unusable FleetOptions (process isolation without an
  /// exec path, max_attempts < 1).
  FleetSupervisor(std::vector<SessionSpec> specs,
                  analysis::CausalGraph graph, LiveOptions live,
                  FleetOptions fleet);
  ~FleetSupervisor();

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  /// Runs every session to a terminal state (completed, quarantined, or —
  /// under a drain — suspended) and returns the report. Never throws for
  /// per-session failures; runs once per supervisor instance. With
  /// FleetOptions::dynamic the pool stays alive for AddSessions() arrivals
  /// until NoMoreSessions() or RequestDrain().
  FleetReport Run();

  /// Admit more sessions through the normal budget path while Run() is in
  /// flight (or before it starts). `chaos` is parallel to `specs` (may be
  /// shorter/empty). Ignored after a drain has begun. Thread-safe.
  void AddSessions(std::vector<SessionSpec> specs,
                   std::vector<SessionChaos> chaos = {});

  /// Declares that no further AddSessions() calls will come; a dynamic
  /// Run() may then terminate once every known session is terminal.
  /// Thread-safe.
  void NoMoreSessions();

  /// Graceful drain: stop starting attempts, ask in-flight attempts to
  /// checkpoint and stop (drain token in thread isolation, SIGTERM to
  /// process-isolation children), and mark everything still open as
  /// suspended. Run() then returns. Thread-safe, idempotent.
  void RequestDrain();

  /// Escalation for a drain that outlives its grace period: flips every
  /// worker's cancel token so wedged thread-isolation attempts abort (the
  /// session still resumes from its last periodic checkpoint). Process
  /// children are SIGKILLed by their own grace timer. Thread-safe.
  void CancelInFlight();

  /// Reload retry/deadline tunables (SIGHUP path). Zero/negative fields
  /// keep their current value. Sessions whose tenant overrides
  /// max_attempts keep the override. Thread-safe.
  void UpdateTunables(int max_attempts, long backoff_ms, long backoff_cap_ms,
                      double session_deadline_s);

  /// Point-in-time health counters for the fleet_status.json liveness
  /// file. Thread-safe.
  struct Status {
    long known = 0;        ///< Sessions ever admitted (incl. seeded ones).
    long active = 0;       ///< Attempts running right now.
    long pending = 0;      ///< Queued (first attempt or backoff).
    long retrying = 0;     ///< Queued sessions with >= 1 failed attempt.
    long completed = 0;
    long quarantined = 0;
    long suspended = 0;
    long fenced = 0;           ///< Sessions fenced off to another box.
    long failed_attempts = 0;  ///< Attempt failures observed (all causes).
    long total_windows = 0;    ///< Windows analysed by terminal sessions.
    long total_chains = 0;
    long total_shed_windows = 0;
    bool draining = false;
    /// State dirs of sessions currently open and admitted — the liveness
    /// writer stats their checkpoints for a last-checkpoint age.
    std::vector<std::string> open_state_dirs;
  };
  [[nodiscard]] Status Snapshot() const;

  /// Resolved pool size (after the 0 = auto default).
  [[nodiscard]] int workers() const { return workers_; }

  /// The effective LiveOptions session `idx` runs with (admission budgets
  /// and chaos hooks applied) — exposed for tests.
  [[nodiscard]] const LiveOptions& session_options(std::size_t idx) const;

 private:
  struct Impl;
  Impl* impl_;
  int workers_ = 0;
};

}  // namespace domino::runtime
