// What both admission backends hand back: the in-process Scheduler
// (reached through Runtime) and the distributed Coordinator (reached
// through DistributedService) each return a RunHandle per admitted run,
// so callers wait on runs the same way whichever plane executes them.
//
// This header also owns the *structured* shed vocabulary: every
// admission-time rejection is built through shed_status(), which tags the
// message with a machine-readable reason token and retry hint, and
// shed_info() decodes both in one call.  The full classification table —
// which reason rides which status code, and which are worth retrying —
// lives with the shed ladder in scheduler.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "pragma/service/run_spec.hpp"
#include "pragma/util/status.hpp"

namespace pragma::service {

enum class RunState { kQueued, kRunning, kCompleted, kFailed, kCancelled };

[[nodiscard]] const char* to_string(RunState state);
[[nodiscard]] constexpr bool is_terminal(RunState state) {
  return state == RunState::kCompleted || state == RunState::kFailed ||
         state == RunState::kCancelled;
}

/// Everything a finished run produced.  Exactly one of the per-kind
/// payloads is meaningful, selected by the spec's WorkloadKind.
struct RunOutcome {
  RunState state = RunState::kQueued;
  util::Status status;  ///< non-ok explains kFailed
  core::ManagedRunReport managed;
  core::RunSummary replay;
  core::SystemSensitiveResult system_sensitive;
  double queue_s = 0.0;  ///< admission -> dispatch wall time
  double exec_s = 0.0;   ///< dispatch -> completion wall time
  /// The run finished under a throttle-action budget violation (it ran to
  /// completion, slowed by ResourceBudget::throttle_factor).
  bool budget_throttled = false;
  /// Per-run resource usage (all-zero when no accountant is configured).
  res::ResourceUsage usage;
};

class Scheduler;

namespace detail {

/// Shared state of one submitted run.  Lock ordering: a thread holding a
/// backend lock (Scheduler::mu_) may take Ticket::mu, never the reverse.
struct Ticket {
  RunSpec spec;
  /// Backend-assigned run id surfaced through RunHandle::id() (the
  /// scheduler uses its admission sequence, which is also its FIFO
  /// tie-break; the coordinator its DistRun id).
  std::uint64_t run_id = 0;
  /// Journal sequence of this run's pending record (0 = not journaled);
  /// the terminal-state transition appends the matching tombstone.
  std::uint64_t journal_seq = 0;
  std::chrono::steady_clock::time_point submitted_at;
  std::mutex mu;
  std::condition_variable cv;
  RunState state = RunState::kQueued;  // guarded by mu
  RunOutcome outcome;                  // stable once state is terminal
  std::atomic<bool> cancel{false};
  core::ManagedRun* active = nullptr;  // guarded by mu; only while running
};

}  // namespace detail

/// Async handle to a submitted run: status, cooperative cancel, blocking
/// join.  Copyable; all copies observe the same run.  Handles returned
/// from a coalesced batch submission may share one execution — they all
/// observe the same outcome (and a cancel through any of them cancels
/// that shared execution).
class RunHandle {
 public:
  RunHandle() = default;

  [[nodiscard]] bool valid() const { return ticket_ != nullptr; }
  [[nodiscard]] const std::string& name() const;
  /// Backend-assigned run id (scheduler admission sequence or distributed
  /// DistRun id).  Coalesced handles share their primary's id.
  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] RunState state() const;
  [[nodiscard]] bool done() const { return is_terminal(state()); }

  /// Request cancellation.  Queued runs are withdrawn immediately; running
  /// ones stop at their next cooperative boundary.  Returns false when the
  /// run had already reached a terminal state or the backend does not
  /// support cancellation (distributed runs).
  bool cancel();

  /// Block until the run reaches a terminal state.  The returned reference
  /// stays valid for the handle's lifetime.
  const RunOutcome& wait();

 private:
  friend class Scheduler;
  friend class Coordinator;
  /// `owner` services cancel(); null (distributed handles) = no cancel.
  RunHandle(std::shared_ptr<detail::Ticket> ticket, Scheduler* owner)
      : ticket_(std::move(ticket)), owner_(owner) {}

  std::shared_ptr<detail::Ticket> ticket_;
  Scheduler* owner_ = nullptr;
};

// ---------------------------------------------------------------------------
// Structured shed classification (see the ladder table in scheduler.hpp)
// ---------------------------------------------------------------------------

/// Why an admission-time rejection happened.  Encoded into the status
/// message as a machine-readable " [shed=<token>]" tag by shed_status()
/// and decoded by shed_info().
enum class ShedReason {
  kNone = 0,          ///< status carries no shed tag (not an admission shed)
  kRateLimited,       ///< per-tenant token bucket empty
  kQueueFull,         ///< bounded admission queue at capacity
  kJournalSaturated,  ///< WAL live set over max_active_bytes
  kPayloadTooLarge,   ///< spec exceeds the journal payload cap
  kBudgetExhausted,   ///< per-run resource budget violated
  kShuttingDown,      ///< backend is tearing down
};

[[nodiscard]] const char* to_string(ShedReason reason);

/// Decoded backpressure metadata of a shed status.
struct ShedInfo {
  ShedReason reason = ShedReason::kNone;
  /// Parsed " [retry_after_ms=N]" hint; -1 when the status carries none.
  int retry_after_ms = -1;

  /// Whether resubmitting the same spec later can succeed.  Reason-based
  /// for tagged statuses; untagged ones fall back to the historical
  /// code-based convention (kUnavailable / kResourceExhausted retry).
  [[nodiscard]] static bool retryable(const util::Status& status);
};

/// Build a shed status: `code` + message tagged with " [shed=<reason>]"
/// and, when `retry_after_ms >= 0`, a " [retry_after_ms=N]" hint.
[[nodiscard]] util::Status shed_status(util::StatusCode code,
                                       ShedReason reason,
                                       const std::string& message,
                                       int retry_after_ms);

/// Decode the reason tag and retry hint of a status.  Untagged statuses
/// come back with reason kNone and whatever hint their message carries.
[[nodiscard]] ShedInfo shed_info(const util::Status& status);

}  // namespace pragma::service
