// Worker half of the elastic control plane, plus the DistributedService
// harness that deploys a coordinator and a worker pool over one shared
// control network.
//
// A Worker registers with the coordinator, proves liveness by publishing
// heartbeats, and executes leased runs one at a time (extra leases queue
// locally — the backlog work stealing rebalances).  Managed runs execute
// in *slices*: the attempt's first slice builds one core::ManagedRun, and
// each slice advances it a fixed number of coarse steps with run_until()
// and pauses.  Between slices the worker yields control-plane time, which
// is exactly where churn lands: kill() or a fence between two slices
// destroys the live run, leaving only its durable checkpoint generations
// for the next assignee to resume from — the byte-identical failover path
// of the persistence layer.  Only a failover resumes from disk.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pragma/service/coordinator.hpp"

namespace pragma::service {

struct WorkerStats {
  std::size_t leases = 0;       ///< lease directives accepted
  std::size_t slices = 0;       ///< managed-run slices executed
  std::size_t completions = 0;  ///< runs finished and reported
  std::size_t failures = 0;     ///< runs that ended in an error status
  std::size_t revoked = 0;      ///< queued leases handed back (steal)
  std::size_t revoke_refused = 0;  ///< revoke of an already-started run
  std::size_t fences = 0;       ///< fence directives honoured
  std::size_t progress_sent = 0;
};

/// One worker process of the pool.  Like the Coordinator it is event-
/// driven: everything happens inside events of the shared simulator.
class Worker {
 public:
  /// `name` becomes port "dist.worker.<name>".  All references must
  /// outlive the worker.
  Worker(sim::Simulator& simulator, agents::MessageCenter& center,
         agents::ReliableChannel& channel, Coordinator& coordinator,
         std::string name);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Join the pool: register the port, start heartbeats, announce to the
  /// coordinator.  Idempotent while alive; a killed worker stays dead.
  void start();

  /// Permanent crash (SIGKILL): the port vanishes, heartbeats stop,
  /// queued and running work is abandoned mid-flight.  Only durable
  /// checkpoint generations survive for failover.
  void kill();

  /// Freeze for `seconds`: no heartbeats, no slice execution — but the
  /// port stays registered, so directives queue up.  Long stalls walk the
  /// worker through suspect (steal-eligible) and, past the confirm
  /// window, through confirmed-dead; a short stall ends with an immediate
  /// beat that un-suspects it with nothing lost.
  void stall(double seconds);

  [[nodiscard]] const agents::PortId& port() const { return port_; }
  [[nodiscard]] bool alive() const { return started_ && !dead_; }
  [[nodiscard]] bool idle() const { return !active_ && assigned_.empty(); }
  [[nodiscard]] const WorkerStats& stats() const { return stats_; }

 private:
  struct Assignment {
    std::uint64_t id = 0;
    int attempt = 0;
    bool resume = false;
    int steps_hint = 0;
  };
  struct Active {
    Assignment assignment;
    int steps_done = 0;
    /// The account the sliced managed run charges, and the run, live
    /// across the attempt's slices (null before the first slice).  The
    /// run is declared last so it is destroyed before its account.
    std::shared_ptr<res::RunAccount> account;
    std::unique_ptr<core::ManagedRun> run;
  };

  void on_message(const agents::Message& message);
  void on_lease(const agents::Message& message);
  void on_revoke(const agents::Message& message);
  void on_fence();
  void beat();
  void maybe_start();
  /// Execute one slice of the active managed run (or the whole run for
  /// unsliced kinds); reschedules itself until the run finishes.
  void run_slice();
  void finish_active(RunOutcome outcome);
  void send_control(const std::string& type, std::uint64_t id, int attempt);

  sim::Simulator& simulator_;
  agents::MessageCenter& center_;
  agents::ReliableChannel& reliable_;
  Coordinator& coordinator_;
  agents::PortId port_;
  bool started_ = false;
  bool dead_ = false;
  double stalled_until_ = -1.0;
  sim::EventHandle beat_handle_;
  sim::EventHandle slice_handle_;
  std::deque<Assignment> assigned_;
  std::optional<Active> active_;
  WorkerStats stats_;
};

/// Where a churn event lands relative to the burst.
struct ChurnEvent {
  double at_s = 0.0;
  std::string worker;  ///< name for joins, existing name for kill/stall
  double stall_s = 0.0;  ///< stall duration (stall events only)
};

/// A deployed distributed service: one simulator, one control network,
/// one coordinator, N workers — the whole thing deterministic at a fixed
/// seed, churn schedule included.
///
/// With DistributedConfig::autoscale.enabled the service also runs a
/// res::PredictiveAutoscaler: a periodic tick feeds the count of
/// non-terminal runs into the forecaster, joins "auto<N>" workers ahead
/// of predicted demand (each join lands after the modeled spin-up
/// delay), and retires idle auto-joined workers once demand stays below
/// capacity for the cool-down window.  Disabled (the default) schedules
/// no event at all — byte-identical to the fixed pool.
class DistributedService {
 public:
  explicit DistributedService(DistributedConfig config = {},
                              std::uint64_t seed = 40);

  /// Add a worker named `name` and start it now (before run_until_done)
  /// or at `at_s` (mid-burst join).
  Worker& add_worker(const std::string& name);
  void schedule_join(double at_s, const std::string& name);
  /// Schedule a permanent kill of worker `name` at simulated time `at_s`.
  void schedule_kill(double at_s, const std::string& name);
  void schedule_stall(double at_s, const std::string& name, double seconds);
  /// Partition the named workers away from the coordinator (and each
  /// other) during [from_s, until_s); heals afterwards.  Heartbeats and
  /// directives across the cut are dropped deterministically (predicate
  /// faults draw no randomness).
  void schedule_partition(double from_s, double until_s,
                          std::vector<std::string> workers);

  /// Admit a run through the coordinator.  The handle resolves while
  /// run_until_done pumps the simulator; wait() on it only after the
  /// burst finishes (single-threaded simulation).
  [[nodiscard]] util::Expected<RunHandle> submit_run(RunSpec spec);

  /// Drive the simulation until every submitted run is terminal (ok) or
  /// `max_sim_s` passes first (unavailable).
  [[nodiscard]] util::Status run_until_done(double max_sim_s = 3600.0);

  [[nodiscard]] Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] Worker* worker(const std::string& name);
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] agents::MessageCenter& center() { return center_; }

  /// Kill-to-redispatch latency of every failover that followed a
  /// scheduled kill (joins DistRun::failover_redispatches against the
  /// kill schedule; the detector's confirm window dominates).
  [[nodiscard]] std::vector<double> recovery_latencies() const;

  /// The autoscaler (null unless config.autoscale.enabled).
  [[nodiscard]] const res::PredictiveAutoscaler* autoscaler() const {
    return autoscaler_.get();
  }
  [[nodiscard]] std::size_t scale_ups() const { return scale_ups_; }
  [[nodiscard]] std::size_t scale_downs() const { return scale_downs_; }
  [[nodiscard]] std::size_t alive_workers() const;

 private:
  [[nodiscard]] static agents::PortId port_of(const std::string& name);
  /// Periodic autoscale pass: observe demand, join/retire workers.
  void autoscale_tick();

  DistributedConfig config_;
  sim::Simulator simulator_;
  agents::MessageCenter center_;
  agents::ReliableChannel reliable_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// (worker port, kill time) of every scheduled kill that fired.
  std::vector<std::pair<agents::PortId, double>> kills_;
  /// Ports currently cut off; shared with the center's fault predicate.
  std::shared_ptr<std::set<agents::PortId>> partitioned_;
  std::uint64_t seed_;

  // ---- autoscaling (all inert while autoscale.enabled is false) --------
  std::unique_ptr<res::PredictiveAutoscaler> autoscaler_;
  std::set<agents::PortId> auto_ports_;  ///< workers the autoscaler joined
  std::size_t auto_seq_ = 0;             ///< next "auto<N>" name
  std::size_t pending_joins_ = 0;        ///< joins still inside spin-up
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;
};

}  // namespace pragma::service
