// Elastic coordinator/worker control plane (ROADMAP item 1).
//
// Where service::Scheduler executes many RunSpecs over one in-process
// thread pool, the Coordinator is the catalog half of a cctools-style
// distributed service: workers *register* with it over the control
// network, prove liveness by heartbeat, and are handed runs on renewable
// leases.  Everything rides the existing transport stack —
// MessageCenter (optionally lossy/partitioned) + ReliableChannel
// (ack/retry/backoff, duplicate-suppressed) + HeartbeatDetector
// (suspect -> confirm -> un-suspect, no oracle) — inside one
// deterministic discrete-event simulator, so every churn scenario
// replays bit-identically at a fixed seed.
//
// Failure semantics:
//   * A worker's silence first makes it *suspected*: its queued-not-yet-
//     started leases become eligible for stealing (two-phase revoke, so a
//     run is never executed twice), but its running run stays put — a
//     resumed heartbeat un-suspects it with no work lost.
//   * Only a *confirmed* death triggers failover: pending directives to
//     the corpse are abandoned, a fence message invalidates whatever it
//     might still do, and its in-flight runs are requeued with
//     `resume = true` so the next assignee restores from the run's
//     durable checkpoint generations (src/pragma/io) and finishes with
//     byte-identical final output.  Stale completions from a fenced
//     attempt are rejected by attempt number.
//   * Under partition the coordinator degrades, it does not fail:
//     admitted runs stay queued (queued-not-lost) and only submissions
//     beyond the admission bound are shed with Status::unavailable.
//
// DistributedService (worker.hpp) deploys a coordinator and its workers;
// it is the one entry point to this plane.  The single-process Scheduler
// behind Runtime shares no state with it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pragma/agents/heartbeat.hpp"
#include "pragma/agents/message_center.hpp"
#include "pragma/agents/reliable.hpp"
#include "pragma/res/autoscaler.hpp"
#include "pragma/service/admission.hpp"
#include "pragma/service/run_spec.hpp"
#include "pragma/service/scheduler.hpp"
#include "pragma/sim/simulator.hpp"
#include "pragma/util/status.hpp"

namespace pragma::service {

/// Control-plane message types (the coordinator/worker wire protocol).
namespace dist {
inline const std::string kRegister = "dist.register";
inline const std::string kLease = "dist.lease";
inline const std::string kRevoke = "dist.revoke";
inline const std::string kRevokeOk = "dist.revoke_ok";
inline const std::string kRevokeNack = "dist.revoke_nack";
inline const std::string kProgress = "dist.progress";
inline const std::string kComplete = "dist.complete";
inline const std::string kFailed = "dist.failed";
inline const std::string kFence = "dist.fence";
inline const std::string kCoordinatorPort = "dist.coord";
inline const std::string kWorkerPortPrefix = "dist.worker.";
}  // namespace dist

/// The distributed-service knob set (DistributedService adds its workers
/// explicitly).
struct DistributedConfig {
  /// Admission bound on *queued* (not yet leased) runs; submissions
  /// beyond it are shed with Status::unavailable.
  std::size_t queue_capacity = 64;
  /// Retry-after hint attached to queue-full sheds (same ladder slot as
  /// SchedulerConfig::shed_retry_after_ms).
  int shed_retry_after_ms = 50;
  /// Worker liveness: publish cadence and miss thresholds
  /// (suspect after 3 silent periods, confirm dead after 6).
  agents::HeartbeatConfig heartbeat{"dist.heartbeats", 1.0, 3, 6};
  /// Ack/retry/backoff protocol for every dispatch-path message.  Exposed
  /// through the one env/CLI merge path (--reliable-timeout,
  /// --reliable-backoff, --reliable-attempts; see add_run_flags).
  agents::ReliableConfig reliable;
  /// A lease with no progress for this long on a live worker is revoked
  /// and redispatched (fenced by attempt number).
  double lease_s = 60.0;
  /// Dispatch/steal/expiry sweep cadence.
  double dispatch_period_s = 0.5;
  /// Leases a worker may hold at once (1 running + the rest queued; the
  /// queued tail is what work stealing rebalances).
  std::size_t worker_queue_depth = 2;
  /// Managed runs execute in slices of this many coarse steps so worker
  /// death can land mid-run; each slice halts SIGKILL-style and the next
  /// resumes from the durable checkpoint store.  <= 0 = one slice.
  int slice_steps = 8;
  /// Modeled control-plane seconds a slice occupies (the real
  /// computation runs inside the slice event; this is the simulated
  /// duration that heartbeats, kills, and leases interleave with).
  double slice_sim_s = 2.0;
  /// Checkpoint directory root for managed runs submitted without
  /// persistence: the coordinator forces the durable store on (failover
  /// needs generations to resume from) and, unless the run is `ft`-enabled,
  /// checkpoints it every simulated second.
  std::string checkpoint_root = "pragma-dist-checkpoints";
  /// Predictive worker-pool autoscaling (DistributedService only).  Off
  /// by default: with enabled=false no autoscaler exists, no event is
  /// scheduled, and the service is byte-identical to the fixed-pool path.
  res::AutoscaleConfig autoscale;
  /// Per-run resource accounting for worker slices: accounts are keyed by
  /// run name, so usage accumulates across slices and failovers.  A
  /// kill-action budget violation fails the run with
  /// Status::resource_exhausted.  Not owned; null = accounting off
  /// (byte-identical legacy path).
  res::ResourceAccountant* accountant = nullptr;
};

enum class DistRunState { kQueued, kLeased, kRunning, kCompleted, kFailed };

[[nodiscard]] const char* to_string(DistRunState state);
[[nodiscard]] constexpr bool is_terminal(DistRunState state) {
  return state == DistRunState::kCompleted || state == DistRunState::kFailed;
}

/// Catalog entry for one submitted run.
struct DistRun {
  std::uint64_t id = 0;
  RunSpec spec;
  DistRunState state = DistRunState::kQueued;
  agents::PortId assignee;  ///< empty while queued
  /// Fencing epoch: bumped on every requeue; results stamped with an
  /// older attempt are ignored.
  int attempt = 0;
  /// Next assignee resumes from the durable checkpoint store.
  bool resume = false;
  int steps_done = 0;  ///< last progress report (managed runs)
  double submitted_s = 0.0;
  double first_dispatch_s = -1.0;
  double last_dispatch_s = 0.0;
  double last_activity_s = 0.0;
  double completed_s = 0.0;
  int failovers = 0;  ///< confirmed-death reassignments of a started run
  int steals = 0;     ///< two-phase steals of the queued lease
  /// (victim port, redispatch time) per failover — the harness joins this
  /// with its kill schedule to compute recovery latency.
  std::vector<std::pair<agents::PortId, double>> failover_redispatches;
  RunOutcome outcome;  ///< valid once state is terminal

 private:
  friend class Coordinator;
  bool steal_pending = false;
  agents::PortId pending_victim;     // set at confirm, cleared at redispatch
  double pending_confirm_s = -1.0;
};

struct CoordinatorStats {
  std::size_t submitted = 0;
  std::size_t shed = 0;  ///< rejected at admission (queue full)
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t registrations = 0;
  std::size_t rejoins = 0;  ///< confirmed-dead workers that came back
  std::size_t leases_granted = 0;
  std::size_t steals = 0;
  std::size_t failovers = 0;
  std::size_t requeued = 0;  ///< never-started leases of a dead worker
  std::size_t lease_expiries = 0;
  std::size_t suspects = 0;
  std::size_t confirms = 0;
  std::size_t stale_results_ignored = 0;  ///< fenced-attempt completions
  std::size_t reliable_failures = 0;      ///< sends that exhausted retries
  /// Confirm -> redispatch latency of every failover (detection latency
  /// is paid before this inside the heartbeat detector).
  std::vector<double> failover_redispatch_s;
};

/// The catalog/coordinator.  Single-threaded: every action happens inside
/// an event of the owning simulator, so decisions are deterministic.  It
/// hands out the same RunHandles as the in-process Scheduler, with two
/// differences: a distributed RunHandle cannot cancel, and it resolves
/// only while the owning simulator runs (RunHandle::wait() from the sim
/// thread before pumping events would never return — use all_done() /
/// run_until_done loops, then read the handles).
class Coordinator {
 public:
  /// Registers the coordinator port, makes it a reliable endpoint, starts
  /// the heartbeat detector and the periodic dispatch sweep.  `simulator`,
  /// `center`, and `channel` must outlive the coordinator.
  Coordinator(sim::Simulator& simulator, agents::MessageCenter& center,
              agents::ReliableChannel& channel, DistributedConfig config = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Admit a run.  Sheds with a ShedInfo-tagged Status::unavailable
  /// (queue-full reason + retry-after hint) beyond the admission bound.
  /// Managed runs without durable persistence get the checkpoint store
  /// forced on (failover needs generations to resume from).  The
  /// handle's id() is the DistRun id (find()/runs() key).
  [[nodiscard]] util::Expected<RunHandle> submit(RunSpec spec);

  /// Resolve every non-terminal handle with `status` (state kFailed, or
  /// kCancelled when `status` is ok).  Call before tearing down the
  /// control plane so no RunHandle is left waiting on a run that can no
  /// longer finish; the destructor does this with an "unavailable" status
  /// as a backstop.
  void resolve_pending(const util::Status& status);

  [[nodiscard]] const DistRun* find(std::uint64_t id) const;
  [[nodiscard]] const std::map<std::uint64_t, DistRun>& runs() const {
    return runs_;
  }
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  [[nodiscard]] const DistributedConfig& config() const { return config_; }
  [[nodiscard]] agents::HeartbeatDetector& detector() { return detector_; }
  [[nodiscard]] const agents::PortId& port() const { return port_; }

  // ---- worker-facing data plane ---------------------------------------
  // Control messages carry identifiers only; the spec and result blobs
  // move out of band (modeling the bulk-data transfer a real deployment
  // would do over a separate channel).  A worker may only *act* on these
  // after the corresponding control message arrived through the center.
  [[nodiscard]] const RunSpec* spec_for(std::uint64_t id) const;
  void deposit_outcome(std::uint64_t id, int attempt, RunOutcome outcome);

 private:
  struct WorkerInfo {
    agents::PortId port;
    bool dead = false;
    std::vector<std::uint64_t> leases;  // dispatch order
    std::uint64_t leases_granted = 0;
    double registered_s = 0.0;
  };

  /// Publish a terminal run's outcome to its ticket and wake waiters.
  void resolve_ticket(std::uint64_t id, const RunOutcome& outcome);

  void on_message(const agents::Message& message);
  void on_register(const agents::PortId& from);
  void on_progress(const agents::Message& message);
  void on_result(const agents::Message& message, bool failed);
  void on_revoke_reply(const agents::Message& message, bool ok);
  void on_suspect(const agents::PortId& member, double now);
  void on_confirm(const agents::PortId& member, double now);
  void on_recover(const agents::PortId& member, double now);

  /// Expiry scan + steal pass + grant pass.
  void sweep();
  void grant(std::uint64_t id, WorkerInfo& worker);
  /// Requeue (front) with a bumped attempt; `failover` marks a started
  /// run being recovered (records victim + confirm time for latency).
  void requeue(DistRun& run, const agents::PortId& victim, bool failover);
  void detach_lease(const agents::PortId& worker, std::uint64_t id);
  void schedule_sweep_now();

  sim::Simulator& simulator_;
  agents::MessageCenter& center_;
  agents::ReliableChannel& reliable_;
  DistributedConfig config_;
  agents::PortId port_;
  agents::HeartbeatDetector detector_;
  sim::EventHandle sweep_handle_;

  std::map<agents::PortId, WorkerInfo> workers_;
  std::map<std::uint64_t, DistRun> runs_;
  /// RunHandle tickets by DistRun id; erased once resolved terminal.
  std::map<std::uint64_t, std::shared_ptr<detail::Ticket>> tickets_;
  std::deque<std::uint64_t> queue_;  // queued run ids, dispatch order
  std::map<std::pair<std::uint64_t, int>, RunOutcome> deposits_;
  std::uint64_t next_id_ = 1;
  CoordinatorStats stats_;
};

}  // namespace pragma::service
