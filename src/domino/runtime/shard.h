// Cross-box sharding for the serve fleet — lease-based work claiming over
// a shared filesystem.
//
// N `domino serve` daemons on N boxes point at one --state-root on a
// shared filesystem and run ONE fleet. There is no coordinator process and
// no network protocol: the only shared medium is the filesystem, and the
// only primitives assumed of it are atomic rename/link/mkdir (lease.h).
// Each box is identified by an --owner id; each session maps to a lease
// directory
//
//   <state_root>/shard/<session-key>/        (lease.h layout)
//   <state_root>/shard/<session-key>/done    terminal record (this file)
//
// where <session-key> is the basename of SessionStateDirFor() — the same
// stable dataset->state mapping the daemon already uses, so the box that
// takes over a crashed box's session finds the victim's checkpoint at the
// shared state dir automatically and resumes byte-identically.
//
// The ShardCoordinator is one box's view of the pool:
//
//  * TryClaim: check the done marker (work already finished anywhere ->
//    kDone), then take the lease — fresh, or stolen from an owner whose
//    heartbeat is staler than the TTL. Claimed-elsewhere sessions are
//    simply not admitted on this box (kHeldElsewhere — skipped, not shed).
//  * RenewHeld: heartbeat every held lease; a lease that comes back stolen
//    is reported so the daemon can fence the running attempt.
//  * MarkDone: publish the durable terminal record (fence-checked), THEN
//    release the lease. The order matters: a SIGKILL between the two
//    leaves a done marker behind, and a done marker always wins over a
//    stale lease, so the session is never re-run.
//  * SafeToGc: checkpoint GC must hold a current lease — a takeover box
//    can never race GC on the shared state root.
//
// The merged fleet view (`domino fleet-status <state-root>`) aggregates
// every box's manifest plus the done markers. Its default JSON is
// deliberately owner- and attempt-free: those are per-box bookkeeping that
// a takeover legitimately changes (the survivor re-runs a stolen session
// as its own attempt 1), while dataset/status/windows/chains are
// resume-invariant — so the merged view of a crashed-and-taken-over fleet
// is byte-identical to an undisturbed single-box run's.
//
// DESIGN.md §15 documents the lease lifecycle state machine and the
// fencing rules in full.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/lease.h"
#include "domino/runtime/fleet.h"

namespace domino::runtime {

struct ShardOptions {
  std::string state_root;  ///< The shared filesystem root.
  std::string owner;       ///< This box's id (e.g. its hostname).
  long lease_ttl_ms = 15'000;  ///< Heartbeat staler than this = dead box.
  long heartbeat_ms = 0;       ///< Renew cadence; 0 = lease_ttl_ms / 4.
  /// Unix-ms wall clock, injectable for tests. Wall time never reaches any
  /// byte-compared output; it only drives staleness.
  std::function<std::int64_t()> clock;
};

/// Outcome of one claim attempt.
enum class ClaimResult {
  kClaimed,        ///< This box owns the session now.
  kHeldElsewhere,  ///< A live owner has it — skip, don't shed.
  kDone,           ///< A done marker exists — finished somewhere already.
  kError,          ///< Filesystem trouble; retry next sweep.
};

/// The durable terminal record for one session, written under the lease
/// directory before the lease is released. Status uses the manifest codes:
/// 1 = completed, 2 = quarantined (fenced sessions never write one — the
/// new owner's record is the truth).
struct ShardDoneRecord {
  std::string dataset_dir;
  std::string owner;
  std::uint64_t token = 0;
  int status = 0;
  int attempts = 0;
  long windows = 0;
  long chains = 0;
};

std::string FormatShardDone(const ShardDoneRecord& rec);
bool ParseShardDone(const std::string& text, ShardDoneRecord* out,
                    std::string* error);

class ShardCoordinator {
 public:
  /// Throws std::invalid_argument on an empty state_root/owner or a
  /// non-positive TTL.
  explicit ShardCoordinator(ShardOptions opts);

  /// The lease directory for a dataset (see header comment).
  [[nodiscard]] std::string LeaseDirFor(const std::string& dataset_dir) const;

  ClaimResult TryClaim(const std::string& dataset_dir, std::string* error);

  /// Heartbeats every held lease; returns the datasets whose lease turned
  /// out stolen (their ownership is already forgotten — the caller must
  /// treat the running attempt as fenced).
  std::vector<std::string> RenewHeld();

  /// Fence-checked terminal publish: writes the done marker (fsync'd,
  /// atomic) and releases the lease, in that order. Returns false — and
  /// touches nothing — when the lease is no longer ours.
  bool MarkDone(const std::string& dataset_dir, const ShardDoneRecord& rec,
                std::string* error);

  /// Releases a still-held lease without a done marker (drain path: the
  /// session is suspended, another box may claim and finish it).
  void Release(const std::string& dataset_dir);
  void ReleaseAll();

  /// Forgets a lease known to be lost, touching nothing on disk.
  void Forget(const std::string& dataset_dir);

  [[nodiscard]] bool Held(const std::string& dataset_dir);
  /// Fencing token of a held lease (0 if not held).
  [[nodiscard]] std::uint64_t TokenFor(const std::string& dataset_dir);
  /// True iff we hold the lease AND its on-disk token is still ours —
  /// the precondition for deleting anything under the shared state root.
  [[nodiscard]] bool SafeToGc(const std::string& dataset_dir);

  [[nodiscard]] long held_count();
  [[nodiscard]] const ShardOptions& options() const { return opts_; }
  [[nodiscard]] long effective_heartbeat_ms() const {
    return opts_.heartbeat_ms > 0 ? opts_.heartbeat_ms
                                  : opts_.lease_ttl_ms / 4;
  }

 private:
  ShardOptions opts_;
  std::mutex mu_;
  std::map<std::string, LeaseFile> leases_;  ///< dataset_dir -> lease.
};

// ---------------------------------------------------------------------------
// Merged fleet view
// ---------------------------------------------------------------------------

/// One session in the merged cross-box view. Status: 0 open, 1 done,
/// 2 quarantined, 3 fenced (per-box manifests only; the merged status of a
/// session some box finished is never fenced).
struct FleetStatusSession {
  std::string dataset_dir;
  std::string owner;
  int status = 0;
  long windows = 0;
  long chains = 0;
};

struct FleetStatusView {
  std::vector<FleetStatusSession> sessions;  ///< Sorted by dataset_dir.
};

/// Scans `<state_root>` for every box's `fleet*.manifest` plus the shard
/// done markers and merges them: done markers win over manifest entries
/// (they survive a SIGKILLed box whose manifest was never written),
/// terminal manifest entries win over open ones, ties resolve
/// deterministically. Returns false only on an unreadable state root;
/// individually corrupt manifests are skipped (a crashed box must not
/// block the fleet view).
bool CollectFleetStatus(const std::string& state_root, FleetStatusView* out,
                        std::string* error);

/// Deterministic merged JSON. The default omits owners and attempt counts
/// (see header comment — they legitimately differ after a takeover);
/// `with_owners` adds per-session owner attribution and a per-owner count
/// map for humans, at the cost of the byte-identity guarantee.
std::string BuildFleetStatusJson(const FleetStatusView& view,
                                 bool with_owners);

}  // namespace domino::runtime
