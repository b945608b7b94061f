// Trace replay: evaluates partitioning strategies over a full adaptation
// trace on a simulated cluster (the Table 4 experiment).
//
// "The experiments consisted of measuring application execution times for
//  different processor configurations, with the partitioning parameters
//  switched on-the-fly during application execution."
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "pragma/amr/trace.hpp"
#include "pragma/core/exec_model.hpp"
#include "pragma/core/meta_partitioner.hpp"
#include "pragma/grid/cluster.hpp"
#include "pragma/obs/obs.hpp"
#include "pragma/partition/workgrid.hpp"

namespace pragma::core {

struct TraceRunConfig {
  ExecModelConfig exec;
  MetaPartitionerConfig meta;
  /// Number of processors (cluster nodes used).
  std::size_t nprocs = 64;
  /// Canonical metric/execution lattice grain (level-0 cells per edge).
  int canonical_grain = 2;
  /// Per-processor target fractions; empty = equal shares.
  std::vector<double> targets;
  /// Fraction of each regrid interval's steps evaluated against the *next*
  /// snapshot's workload — the partition goes stale as refinement evolves.
  /// Steps at drift fractions 0, 1/4, 2/4, 3/4 average to 0.375.
  double stale_weight = 0.375;
  /// Adaptive runs only: when the application is in a low-dynamics octant,
  /// the existing partition is kept as long as its imbalance on the current
  /// workload stays below this threshold (the paper's agent-triggered
  /// repartitioning: "a local agent is used to generate events when the
  /// load reaches a certain threshold - this event can then trigger
  /// repartitioning").  Static baselines repartition at every regrid, as
  /// the original SAMR framework did.  Set to 0 to disable.
  double repartition_threshold = 0.20;
  /// Worker threads for WorkGrid rasterization.  Snapshots are costed by
  /// serial ExecutionModel::map sweeps, which also yield the communication
  /// volume.  1 = the serial code path (the default, as in RunSpec and
  /// SystemSensitiveConfig); 0 = hardware_concurrency.  RM3D work is
  /// integer-valued, so every thread count builds bitwise-identical grids.
  int threads = 1;
  /// When > 0, charge partitioning as cells * this instead of the
  /// partitioner's wall-clock measurement (same knob as
  /// ManagedRunConfig::modeled_partition_s_per_cell) so that concurrent
  /// replays of one trace stay bitwise-identical to serial ones.
  /// <= 0 keeps the measured wall clock.
  double modeled_partition_s_per_cell = 0.0;
  /// Observability knobs, merge-enabled at construction (default: no-op).
  obs::ObsConfig obs;
  /// Optional externally owned work-grid cache, shared across runs over the
  /// same trace (Runtime keeps one per trace).  A replay asks it once for
  /// each grid it does not already hold, so concurrent and later replays of
  /// the trace rasterize each grid once.  Must outlive the runner.  Null:
  /// each replay builds its own grids.
  partition::WorkGridCache* shared_cache = nullptr;
  /// Cooperative cancellation probe, polled once per snapshot.  Returning
  /// true abandons the replay; the partial summary is returned as-is.
  std::function<bool()> should_abort;
};

/// Per-snapshot record of a replay.
struct SnapshotRecord {
  int step = 0;
  std::string partitioner;
  std::string octant;      ///< empty for static runs
  double step_time_s = 0.0;      ///< one coarse step
  double imbalance = 0.0;        ///< max-over-target fraction
  double comm_volume = 0.0;      ///< MIT-weighted ghost face cells
  double migration_s = 0.0;      ///< redistribution cost at this regrid
  double partition_s = 0.0;      ///< simulated partitioning cost
  double amr_efficiency = 0.0;
};

struct RunSummary {
  std::string label;
  double runtime_s = 0.0;    ///< total simulated execution time
  double compute_s = 0.0;    ///< critical-path compute component
  double comm_s = 0.0;       ///< critical-path communication component
  double migration_s = 0.0;
  double partition_s = 0.0;
  double max_imbalance = 0.0;   ///< worst snapshot imbalance
  double mean_imbalance = 0.0;  ///< step-weighted mean imbalance
  double amr_efficiency = 0.0;  ///< step-weighted mean
  std::size_t switches = 0;     ///< partitioner switches (adaptive runs)
  std::vector<SnapshotRecord> records;
};

class TraceRunner {
 public:
  /// Processor p runs on cluster node p.  On a federated cluster every
  /// mapping tallies the ghost traffic between processors on different
  /// sites, which time_of charges to the WAN.
  TraceRunner(const amr::AdaptationTrace& trace, const grid::Cluster& cluster,
              TraceRunConfig config = {});

  /// Replay with one fixed partitioner.  Replays are const and keep no
  /// state between calls, so independent replays over the same runner may
  /// execute concurrently.  A replay holds at most the current and next
  /// snapshot's canonical grids and one native grid.
  [[nodiscard]] RunSummary run_static(
      const std::string& partitioner_name) const;

  /// Replay with the octant-driven adaptive meta-partitioner.
  [[nodiscard]] RunSummary run_adaptive(
      const policy::PolicyBase& policies) const;

  [[nodiscard]] const TraceRunConfig& config() const { return config_; }

 private:
  /// Replays with `meta`'s selection at each snapshot when it is given,
  /// else with `fixed`.
  [[nodiscard]] RunSummary replay(const std::string& label,
                                  const partition::Partitioner* fixed,
                                  MetaPartitioner* meta) const;

  const amr::AdaptationTrace& trace_;
  const grid::Cluster& cluster_;
  TraceRunConfig config_;
  ExecutionModel model_;
  /// Site of each processor's node on a federated cluster (empty otherwise),
  /// passed to every mapping so that the WAN is charged.
  std::vector<int> sites_;
};

}  // namespace pragma::core
