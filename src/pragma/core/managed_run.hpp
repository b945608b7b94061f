// The integrated Pragma runtime (Section 4.7): fully automated management
// of a running SAMR application.
//
// "Using application management agents and the predictive system
//  characterization models, Pragma extends this process to adaptively
//  manage all applications components in an automated, scalable, reliable,
//  and efficient manner."
//
// ManagedRun drives the complete loop inside one discrete-event
// simulation:
//
//   RM3D emulator --regrid--> octant classification --policy--> partitioner
//        ^                                                        |
//        |            NWS monitor --capacities--> targets --------+
//        |                                                        v
//   step costing  <-- execution model <-- owner map <-- partition/project
//
// with the CATALINA control network overlaid: per-processor component
// agents watch load and liveness sensors, publish threshold events, and
// the ADM's consolidated decisions trigger out-of-band repartitioning
// (including failure response: a downed node's work is redistributed over
// the survivors).
//
// With fault tolerance enabled the control network stops being ideal:
// messages drop and jitter, directives ride a sequence-numbered
// request/reply protocol, node death is *detected* from heartbeat silence
// (not read from an oracle), and recovery replays work from the last
// save-state checkpoint.  All of it is gated behind `ft.enabled` so the
// default configuration reproduces the ideal-network results byte for
// byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pragma/agents/heartbeat.hpp"
#include "pragma/agents/mcs.hpp"
#include "pragma/agents/reliable.hpp"
#include "pragma/amr/rm3d.hpp"
#include "pragma/core/exec_model.hpp"
#include "pragma/core/meta_partitioner.hpp"
#include "pragma/grid/failure.hpp"
#include "pragma/grid/loadgen.hpp"
#include "pragma/io/checkpoint.hpp"
#include "pragma/monitor/capacity.hpp"
#include "pragma/monitor/resource_monitor.hpp"
#include "pragma/obs/obs.hpp"
#include "pragma/res/accountant.hpp"

namespace pragma::core {

/// Fault-tolerant control plane knobs.  Everything here is inert unless
/// `enabled` is set; the fault-free path must stay byte-identical.
struct FaultToleranceConfig {
  bool enabled = false;
  /// Random faults of the control network.  The run adds a reachability
  /// overlay: ports living on a downed node can neither send nor receive.
  agents::ChannelNoise channel;
  /// Request/reply protocol used for ADM directives.
  agents::ReliableConfig reliable;
  /// Heartbeat publishing/detection cadence.  Beats go to the topic
  /// "<app_name>.hb".
  agents::HeartbeatConfig heartbeat;
  /// Staleness handling for capacity readings from unreachable nodes.
  monitor::StalenessPolicy staleness;
};

/// Durable checkpoint persistence: the paper's save-state actuator made
/// real.  When enabled, every save-state checkpoint also writes a
/// versioned, CRC-checksummed snapshot file (tmp + fsync + rename) under
/// `dir`, and a run constructed with `resume` restores from the newest
/// *valid* generation — torn writes and bit-flips are detected and the
/// loader falls back to the previous generation.
///
/// A resume's final report is bit-identical to an uninterrupted run of the
/// same seed: the restart fast-forwards the whole control plane (monitor,
/// agents, load generator, and with `ft` the lossy channel, the
/// request/reply protocol and the heartbeat detector) to the checkpoint's
/// simulator clock, which replays the exact event and RNG-draw sequence of
/// the original run, then restores the application state on top.  With
/// `ft` that holds for runs with drop and one node failure
/// (Persistence.FtKillResumeMatchesUninterruptedBitwise), but not once a
/// failure confirmed before the checkpoint is followed by another migrate:
/// the replayed confirmation's pending rollback state is not persisted.
struct PersistenceConfig {
  bool enabled = false;
  /// Directory for checkpoint generations (created on first write).
  std::string dir = "pragma-checkpoints";
  /// Restore from the newest valid checkpoint in `dir` (fresh start when
  /// none validates).
  bool resume = false;
  /// Retention window: generations kept on disk (>= 2 keeps a fallback).
  /// GC never deletes the latest recoverable generation regardless.
  int keep_last_n = 2;
};

struct ManagedRunConfig {
  amr::Rm3dConfig app;
  std::size_t nprocs = 16;
  /// Heterogeneous cluster (0 = homogeneous Blue-Horizon-like nodes).
  double capacity_spread = 0.0;
  /// Background load; ignored when disabled.
  bool with_background_load = false;
  grid::LoadGeneratorConfig load;
  /// Use capacity-weighted targets from the monitor.
  bool system_sensitive = false;
  /// Use one-step forecasts instead of current readings for the capacity
  /// calculation (proactive management — the paper's stated extension of
  /// plain NWS consumption).
  bool proactive = false;
  monitor::CapacityWeights weights{0.8, 0.1, 0.1};
  /// NWS-style monitor cadence/noise/history.  The default reproduces the
  /// original hard-wired monitor exactly.
  monitor::ResourceMonitorConfig monitor;
  ExecModelConfig exec;
  MetaPartitionerConfig meta;
  /// Agent sampling period and load threshold for out-of-band events.
  double agent_period_s = 2.0;
  double load_event_threshold = 0.85;
  std::uint64_t seed = 40;
  FaultToleranceConfig ft;
  PersistenceConfig persist;
  /// Simulated seconds between save-state checkpoints, taken when `ft` or
  /// `persist` is enabled.  Smaller means less lost work per failure but
  /// more steady-state overhead.
  double checkpoint_interval_s = 25.0;
  /// Deterministic partitioner cost model, in seconds per work-grid cell
  /// (scaled by the exec model's partition_time_scale like the measured
  /// cost would be).  Replaces the wall-clock measurement so that runs
  /// replay byte-identically — required for the CI observability smoke
  /// test's committed reference output.  <= 0 keeps the wall clock,
  /// except that `ft` and `persist` runs then model
  /// kModeledPartitionSPerCell: fault-injected runs and checkpoint resumes
  /// must replay exactly.
  double modeled_partition_s_per_cell = 0.0;
  /// Observability knobs (tracing/metrics/flight recorder).  Merge-enabled
  /// into the process-wide obs facilities at construction; the default
  /// (all off) leaves global state untouched, so runs stay byte-identical.
  obs::ObsConfig obs;
  /// Application name: prefixes every control-network port and topic.
  /// Port names feed ordered containers inside the message center, so a
  /// different name changes event interleaving — keep the default for
  /// byte-compatibility with existing seeded runs.
  std::string app_name = "rm3d";
};

/// One regrid-interval record of a managed run.
struct ManagedStepRecord {
  int step = 0;
  std::string octant;
  std::string partitioner;
  double sim_time_s = 0.0;        ///< simulated wall time at this regrid
  double step_time_s = 0.0;       ///< per coarse step
  double imbalance = 0.0;
  std::size_t live_nodes = 0;
  bool repartitioned = false;     ///< regrid-driven repartition happened
  // Fault-tolerance accounting (zero when ft is disabled).
  double recovery_s = 0.0;        ///< recompute time charged in this interval
  double lost_cells = 0.0;        ///< cell-updates rolled back to checkpoint
  double detection_s = 0.0;       ///< failure->confirmation latency paid here
};

struct ManagedRunReport {
  double total_time_s = 0.0;       ///< simulated application execution time
  std::size_t regrids = 0;
  std::size_t repartitions = 0;    ///< regrid-driven
  std::size_t agent_events = 0;    ///< threshold events published
  std::size_t adm_decisions = 0;
  std::size_t event_repartitions = 0;  ///< out-of-band, agent-triggered
  std::size_t migrations = 0;          ///< failure-driven component moves
  std::size_t partitioner_switches = 0;
  std::vector<ManagedStepRecord> records;

  // Fault-tolerance telemetry (all zero when ft is disabled).
  std::size_t checkpoints = 0;
  double checkpoint_time_s = 0.0;   ///< total save-state cost
  std::size_t detected_failures = 0;
  std::size_t suspects = 0;
  std::size_t false_suspects = 0;   ///< suspected while actually alive
  std::size_t detector_recoveries = 0;
  double detection_latency_s = 0.0;  ///< summed failure->confirm latency
  double recovery_time_s = 0.0;      ///< summed rollback recompute time
  double cells_advanced = 0.0;       ///< completed coarse-step cell updates
  double recomputed_cells = 0.0;     ///< cell updates redone after rollback
  std::size_t lost_directives = 0;   ///< reliable sends lost to live targets
  std::size_t directive_retries = 0;
  std::size_t directives_abandoned = 0;  ///< to confirmed-dead targets
  std::size_t messages_lost = 0;         ///< dropped by the lossy channel
  std::size_t messages_partition_dropped = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t heartbeats_received = 0;

  // Persistence telemetry.  These three fields describe *this process's*
  // run and are never serialized into a checkpoint.
  std::size_t checkpoints_persisted = 0;
  std::size_t checkpoint_generations_rejected = 0;  ///< corrupt, skipped
  bool resumed = false;  ///< state restored from a checkpoint
};

/// Drives a fully managed execution of the RM3D emulator.
class ManagedRun {
 public:
  /// `account` is the resource account this run charges (not owned; must
  /// outlive run()).  At every coarse-step boundary the run charges its
  /// modeled CPU seconds, samples its modeled memory footprint, charges
  /// checkpoint IO bytes, and polls the account's kill/throttle verdict —
  /// a kill stops the run at the boundary exactly like a cancel, a
  /// throttle inflates the modeled step time by the budget's factor.
  /// Null (the default) is byte-identical to a run without accounting.
  explicit ManagedRun(ManagedRunConfig config = {},
                      res::RunAccount* account = nullptr);

  /// Inject a node failure at simulated time `at` (recovering after
  /// `downtime_s`; negative = permanent).  Call before run().
  void schedule_failure(double at_s, grid::NodeId node, double downtime_s);

  /// Start a random failure/recovery process over the cluster, driven by a
  /// dedicated RNG stream of the run's seed.  Call before run().
  void start_random_failures(double mtbf_s, double mttr_s);

  /// Run coarse steps until `steps` of them are complete or the run ends
  /// (every step done, a cancel, a budget kill, or an unrecoverable
  /// stall); true while the run can continue.  The first call starts the
  /// run: it restores from the store when persist.resume is set, else
  /// makes the initial partition.  Destroying a run between calls is a
  /// SIGKILL: only the checkpoint generations already written survive.
  bool run_until(int steps);

  /// Execute the rest of the configured application run, then the final
  /// accounting.
  [[nodiscard]] ManagedRunReport run();

  /// Ask a run in progress (possibly on another thread) to stop at the
  /// next coarse-step boundary.  run() still performs its final accounting
  /// and returns the partial report; the caller decides how to label it.
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const grid::Cluster& cluster() const { return cluster_; }
  [[nodiscard]] const ManagedRunConfig& config() const { return config_; }
  /// Coarse steps completed so far, restored steps included; a sliced
  /// executor reports it as the run's progress.
  [[nodiscard]] int completed_steps() const { return completed_steps_; }
  /// Present only when ft.enabled; valid for the object's lifetime.
  [[nodiscard]] const agents::HeartbeatDetector* detector() const {
    return detector_.get();
  }
  [[nodiscard]] const agents::ReliableChannel* reliable() const {
    return reliable_.get();
  }

 private:
  [[nodiscard]] std::vector<double> current_targets();
  [[nodiscard]] bool port_reachable(const agents::PortId& port) const;
  /// The first run_until's set-up: restore, else the initial partition.
  void start();
  /// One coarse step; false when the run ends instead of continuing.
  bool step_once();
  void repartition(bool count_as_regrid);
  /// The current hierarchy rasterized at (`grain`, `curve`): the canonical
  /// grid when it has that key (G-MISP+SP's), else native_, rebuilt when
  /// its key differs.
  [[nodiscard]] const partition::WorkGrid& native_grid(
      int grain, partition::CurveKind curve);
  void wire_agents();
  void wire_fault_tolerance();
  void on_suspect(const agents::PortId& port, double now);
  void on_confirm(const agents::PortId& port, double now);
  void rollback_recovery();
  void take_checkpoint();
  void persist_checkpoint();
  /// Restore from the newest fully valid checkpoint generation; false
  /// (fresh start) when none decodes, validates, and matches this config.
  bool try_restore();

  ManagedRunConfig config_;
  res::RunAccount* account_;
  sim::Simulator simulator_;
  grid::Cluster cluster_;
  std::unique_ptr<grid::LoadGenerator> loadgen_;
  std::unique_ptr<grid::FailureInjector> failures_;
  std::unique_ptr<monitor::ResourceMonitor> nws_;
  monitor::CapacityCalculator calculator_;
  policy::PolicyBase policies_;
  std::unique_ptr<agents::Mcs> mcs_;
  std::unique_ptr<agents::Environment> environment_;
  // Declared after environment_: they hold references into its message
  // center and must be destroyed first.
  std::unique_ptr<agents::ReliableChannel> reliable_;
  std::unique_ptr<agents::HeartbeatDetector> detector_;
  amr::Rm3dEmulator emulator_;
  amr::AdaptationTrace trace_;  // grows as the run progresses
  std::unique_ptr<MetaPartitioner> meta_;
  ExecutionModel model_;

  // Current assignment state.
  std::optional<partition::WorkGrid> canonical_;
  // Per-regrid state: the hierarchy changes only at a regrid, so the event
  // repartitions between two regrids reuse the current snapshot's
  // classification and the native grid.  Reset with canonical_.
  std::optional<octant::OctantState> regrid_state_;
  std::optional<partition::WorkGrid> native_;
  std::vector<double> targets_;  ///< what owners_ was partitioned against
  partition::OwnerMap owners_;
  MappedLoad mapped_;
  bool has_assignment_ = false;

  // Fault-tolerance state.
  std::map<agents::PortId, grid::NodeId> port_node_;
  std::vector<grid::NodeId> pending_victims_;
  double pending_detection_s_ = 0.0;
  bool started_ = false;
  bool ended_ = false;
  int completed_steps_ = 0;
  double last_checkpoint_time_ = 0.0;
  /// Per-node cell updates performed since the last checkpoint — exactly
  /// what dies with the node and must be recomputed on rollback.
  std::vector<double> cells_since_checkpoint_;

  // Persistence state.
  std::unique_ptr<io::CheckpointStore> store_;
  /// Snapshot index of every MetaPartitioner::select call so far, so a
  /// resume can replay the meta-partitioner to its exact internal state.
  std::vector<std::uint32_t> select_indices_;
  /// Set by the save_state actuator; forces a checkpoint at the next
  /// coarse-step boundary.
  bool checkpoint_requested_ = false;
  /// Cooperative cancellation flag (request_cancel above).
  std::atomic<bool> cancel_{false};

  ManagedRunReport report_;
};

}  // namespace pragma::core
