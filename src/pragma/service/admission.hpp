// The one submission surface every backend implements.
//
// Before this layer each admission backend grew its own front door:
// Scheduler::submit returned Expected<RunHandle>, Coordinator::submit
// returned Expected<uint64_t>, and batch submission was an ad-hoc loop in
// every caller.  `Admission` unifies them: submit one spec or a batch,
// get RunHandles back, regardless of whether the runs execute on the
// in-process thread pool or the distributed coordinator/worker plane.
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
#include <vector>

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

namespace detail {

struct Ticket;

/// The backend half of a RunHandle: whoever issued the ticket services
/// its cancel requests.  Implemented by Scheduler and Coordinator.
class TicketOwner {
 public:
  virtual ~TicketOwner() = default;
  virtual bool cancel_ticket(const std::shared_ptr<Ticket>& ticket) = 0;
};

/// Shared state of one submitted run.  Lock ordering: a thread holding a
/// backend lock (Scheduler::mu_) may take Ticket::mu, never the reverse.
struct Ticket {
  RunSpec spec;
  std::uint64_t sequence = 0;
  /// Backend-assigned run id surfaced through RunHandle::id() (the
  /// scheduler uses its admission sequence, the coordinator its DistRun
  /// id).
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
  RunHandle(std::shared_ptr<detail::Ticket> ticket, detail::TicketOwner* owner)
      : ticket_(std::move(ticket)), owner_(owner) {}

  std::shared_ptr<detail::Ticket> ticket_;
  detail::TicketOwner* owner_ = nullptr;
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

// ---------------------------------------------------------------------------
// The common admission interface
// ---------------------------------------------------------------------------

/// One submit API for every backend.  Scheduler (in-process pool) and
/// Coordinator (distributed control plane) both implement it, so
/// Runtime::submit / Runtime::submit_batch are backend-agnostic.
class Admission {
 public:
  virtual ~Admission() = default;

  /// Admit one run.  Sheds with a ShedInfo-tagged status under
  /// backpressure (see the ladder table in scheduler.hpp).
  [[nodiscard]] virtual util::Expected<RunHandle> submit(RunSpec spec) = 0;

  /// Admit a batch, returning one result per spec in order.  Partial
  /// admission is normal: a shed item's slot carries its own status while
  /// the rest proceed.  The default implementation is a loop over
  /// submit(); backends override it to amortize (the scheduler journals a
  /// whole batch with one WAL append + one fsync and coalesces identical
  /// specs onto one execution).
  [[nodiscard]] virtual std::vector<util::Expected<RunHandle>> submit_batch(
      std::vector<RunSpec> specs);
};

}  // namespace pragma::service
