// Multi-run scheduler: admits, queues, and concurrently executes many
// managed runs over a shared util::ThreadPool.
//
// The paper's Pragma is an *infrastructure*: one deployment manages many
// grid applications at once.  This scheduler is that layer.  Admission is
// a bounded queue with backpressure — when it is full, submit() sheds the
// run with util::Status::unavailable instead of queueing unboundedly.
// Dispatch is fair-share across tenants (each tenant's dispatched count is
// balanced) with per-run priority inside a tenant and FIFO tie-breaking,
// so one chatty tenant cannot starve the rest and ordering stays
// deterministic.
//
// Admission, staging, the per-tenant token buckets and the fair-share
// state all live under the scheduler's one mutex; only the journal append
// (disk I/O) runs outside it, between a slot reservation and the staging
// that converts it into a queued ticket.  submit() and
// resubmit_recovered() are batches of one through the submit_batch()
// body.
//
// submit_batch() admits N specs in one call: per-item rate-limit and
// capacity decisions (a shed item's slot carries its own status while the
// rest proceed), ONE write-ahead-journal append + ONE group-commit fsync
// for the whole admitted set (see Journal::append_batch), and coalescing
// of identical specs — duplicates of the same journal_key with identical
// encoded payloads attach to one execution and every returned RunHandle
// observes that shared outcome.
//
// Shed ladder classification (every admission-time rejection carries a
// machine-readable " [shed=<reason>]" tag and, where the hint column has
// one, a " [retry_after_ms=N]" hint — decode both with shed_info() from
// admission.hpp):
//
//   reason             | status code        | retry? | hint
//   -------------------+--------------------+--------+--------------------
//   rate-limited       | kUnavailable       | yes    | token deficit
//   queue-full         | kUnavailable       | yes    | shed_retry_after_ms
//   journal-saturated  | kUnavailable       | yes    | journal config hint
//   payload-too-large  | kOutOfRange        | no     | none (spec too big)
//   budget-exhausted   | kResourceExhausted | yes    | shed_retry_after_ms
//   shutting-down      | kUnavailable       | no     | none (terminal)
//
// Rejections that are *not* admission sheds keep their own codes and stay
// untagged — e.g. agents::MessageCenter::register_port collision returns
// kFailedPrecondition (a wiring error; retrying cannot help), and
// shed_info().retryable() correctly refuses to retry it.
//
// Isolation: every run executes in its own core::ManagedRun /
// core::TraceRunner instance — its own discrete-event simulator, cluster
// model, message center, and seeded RNG streams — so N concurrent runs
// produce bitwise the same reports as the same N runs executed serially
// (RunSpec::derived gives each run of a batch a distinct seed stream,
// checkpoint dir, and obs artifact paths).
//
// Cancellation is cooperative: queued runs are removed immediately;
// running ones are flagged and stop at the next coarse-step (managed) or
// snapshot (replay) boundary, custom workloads poll RunContext.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pragma/service/admission.hpp"
#include "pragma/service/run_spec.hpp"
#include "pragma/util/status.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::service {

class Journal;

/// Per-tenant token-bucket admission rate limit, checked *ahead* of
/// fair-share: fair-share balances tenants already admitted, the bucket
/// bounds how fast any one tenant may add to that pool.
struct TenantRateLimit {
  /// Sustained submissions per second per tenant (0 = rate limit off).
  double rate_per_s = 0.0;
  /// Bucket capacity: short bursts up to this many submissions pass even
  /// at zero accumulated credit history.
  double burst = 16.0;
};

struct SchedulerConfig {
  /// Runs in flight at once.  0 = the executing pool's thread count.
  std::size_t workers = 0;
  /// Bounded admission queue: submissions beyond this many *queued* runs
  /// are shed with Status::unavailable.
  std::size_t queue_capacity = 64;
  /// Per-tenant token bucket (first rung of the degradation ladder).
  TenantRateLimit rate_limit = {};
  /// Retry-after hint attached to queue-full sheds (the rate-limit shed
  /// computes its own hint from the token deficit).
  int shed_retry_after_ms = 50;
  /// Write-ahead journal for admitted runs: when non-null, every
  /// admitted spec is durably appended before submit() returns and
  /// tombstoned on its terminal transition.  Not owned; must outlive the
  /// scheduler.  Null = journaling off (byte-identical legacy path).
  Journal* journal = nullptr;
  /// Per-run resource accounting and budget enforcement: when non-null,
  /// every dispatched run charges its modeled CPU/memory/IO to an account
  /// and a RunSpec budget violation is enforced (kill-action runs shed
  /// with Status::resource_exhausted carrying the retry-after hint,
  /// throttle-action ones finish slowed).  Not owned; must outlive the
  /// scheduler.  Null = accounting off (byte-identical legacy path).
  res::ResourceAccountant* accountant = nullptr;
};

struct SchedulerStats {
  std::size_t submitted = 0;  ///< admitted into the queue
  std::size_t rejected = 0;   ///< shed at admission (queue full / shutdown)
  std::size_t shed_queue_full = 0;
  std::size_t shed_rate_limited = 0;
  std::size_t shed_journal = 0;  ///< journal saturated / payload rejected
  std::size_t batches = 0;       ///< submit_batch() calls
  std::size_t batch_specs = 0;   ///< specs that arrived via submit_batch()
  std::size_t coalesced = 0;     ///< duplicates attached to a primary run
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t budget_killed = 0;     ///< kill-action budget violations
  std::size_t budget_throttled = 0;  ///< throttle-action budget violations
  std::size_t peak_queue_depth = 0;
  std::size_t peak_running = 0;
  double queue_p50_s = 0.0;  ///< median admission->dispatch latency
  double queue_p99_s = 0.0;
};

class Scheduler {
 public:
  /// `pool` must outlive the scheduler; null uses util::shared_pool().
  explicit Scheduler(SchedulerConfig config = {},
                     util::ThreadPool* pool = nullptr);
  /// Cancels queued runs, requests cancellation of running ones, and
  /// waits for everything in flight to finish.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit a run.  Fails with Status::unavailable when the tenant's rate
  /// limit, the admission queue, or the journal sheds it (backpressure:
  /// the status carries a ShedInfo reason tag and a retry-after hint —
  /// see shed_info() in admission.hpp).  When a journal is configured,
  /// the pending record is durable before this returns.
  [[nodiscard]] util::Expected<RunHandle> submit(RunSpec spec);

  /// Admit a batch: one WAL append + one fsync for every admitted spec,
  /// per-item shed statuses, identical specs coalesced onto one
  /// execution.  Results are positional: results[i] belongs to specs[i].
  [[nodiscard]] std::vector<util::Expected<RunHandle>> submit_batch(
      std::vector<RunSpec> specs);

  /// Resubmit a journal-recovered run under its original journal
  /// sequence: skips the rate limiter (the run was already admitted once)
  /// and does not re-append — the existing record stays live until the
  /// rerun's terminal tombstone.
  [[nodiscard]] util::Expected<RunHandle> resubmit_recovered(
      RunSpec spec, std::uint64_t journal_seq);

  /// Block until the queue is empty and no run is in flight.
  void drain();

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

 private:
  friend class RunHandle;  // cancel() reaches cancel_ticket
  using TicketPtr = std::shared_ptr<detail::Ticket>;

  struct TokenBucket {
    double tokens = 0.0;
    bool primed = false;
    std::chrono::steady_clock::time_point last_refill;
  };

  [[nodiscard]] std::size_t workers() const;
  /// The one admission body.  `batch` counts the call in the batch stats
  /// (submit_batch); a non-zero `recovered_seq` marks a journal-recovered
  /// run, which skips the rate limiter and the journal append.
  [[nodiscard]] std::vector<util::Expected<RunHandle>> submit_specs(
      std::vector<RunSpec> specs, bool batch, std::uint64_t recovered_seq);
  /// A result slot index and the ticket admitted for it.
  using Admitted = std::pair<std::size_t, TicketPtr>;
  /// Shutdown, rate-limit (when `rate_limited`) and capacity checks for
  /// one spec.  Requires mu_.  Ok = one queue slot now held in reserved_;
  /// otherwise the counted shed status.
  [[nodiscard]] util::Status reserve_slot(const RunSpec& spec,
                                          bool rate_limited);
  /// Turn the reservations of `admitted` into queued tickets, in order,
  /// and dispatch.  A non-ok `journaled` (the append failed) or a racing
  /// shutdown sheds them instead.  Requires mu_.
  void stage_locked(std::vector<Admitted>& admitted,
                    const util::Status& journaled,
                    std::vector<util::Expected<RunHandle>>& results);
  /// Token-bucket check for `tenant`.  Requires mu_.  Returns ok or the
  /// shed status with a computed retry-after hint.
  [[nodiscard]] util::Status check_rate_limit(const std::string& tenant);
  /// Dispatch queued tickets while worker slots are free.  Requires mu_.
  void maybe_dispatch();
  /// Remove and return the fair-share pick.  Requires mu_; queue_ must be
  /// non-empty.
  [[nodiscard]] TicketPtr pick_next();
  /// Pool-thread body: execute one run and publish its outcome.
  void execute(const TicketPtr& ticket);
  void finish(const TicketPtr& ticket, RunOutcome outcome);
  bool cancel_ticket(const TicketPtr& ticket);

  SchedulerConfig config_;
  util::ThreadPool* pool_;

  mutable std::mutex mu_;  ///< guards everything below
  std::condition_variable idle_cv_;
  bool shutdown_ = false;
  std::uint64_t next_sequence_ = 0;
  /// Queue slots held by specs whose journal append is in flight: they
  /// count against queue_capacity but not toward queue_depth().
  std::size_t reserved_ = 0;
  std::size_t running_ = 0;
  std::deque<TicketPtr> queue_;
  std::vector<TicketPtr> inflight_;
  std::map<std::string, TokenBucket> buckets_;
  /// Runs dispatched per tenant: the fair-share balance.
  std::map<std::string, std::uint64_t> dispatched_;
  /// Every counter except the queue percentiles, which stats() derives
  /// from queue_latencies_s_.
  SchedulerStats stats_;
  std::vector<double> queue_latencies_s_;
};

}  // namespace pragma::service
