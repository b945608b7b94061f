// The execution model: charges simulated time for computing, communicating
// and migrating a partitioned SAMR hierarchy on a simulated cluster.
//
// This is the substitute for running RM3D on the paper's testbeds (Blue
// Horizon / the Linux cluster): per coarse step each processor advances its
// assigned cell-updates at its current effective speed, exchanges ghost
// faces with neighboring processors over its uplink, and repartitioning
// moves patch data.  The step time is the slowest processor's compute+comm
// time (bulk-synchronous execution, as in the original code).
#pragma once

#include <vector>

#include "pragma/grid/cluster.hpp"
#include "pragma/partition/metrics.hpp"
#include "pragma/partition/partitioner.hpp"

namespace pragma::core {

/// The canonical execution lattice: every run costs its assignments on the
/// hierarchy rasterized at this grain (level-0 cells per grain-cell edge)
/// in this order, and partitioners' owner maps are projected onto it.
inline constexpr int kCanonicalGrain = 2;
inline constexpr partition::CurveKind kCanonicalCurve =
    partition::CurveKind::kHilbert;

/// The deterministic partitioner cost, in seconds per work-grid cell: what
/// `--deterministic` runs, fault-tolerant runs and persisted runs charge
/// instead of the measured wall clock, so that they replay byte-identically.
inline constexpr double kModeledPartitionSPerCell = 50e-9;

struct ExecModelConfig {
  /// Flops per cell-update of the RM3D kernel (hydro stencil + EOS).
  double flops_per_cell_update = 5000.0;
  /// Bytes exchanged per ghost-face cell per substep.
  double bytes_per_face_cell = 120.0;
  /// Bytes of state per cell (for migration cost).
  double bytes_per_cell = 80.0;
  /// Per-message overhead (latency + pack/unpack) charged per
  /// (neighbor, level) exchange per substep.
  double message_latency_s = 400e-6;
  /// Wall-clock partitioning time is scaled by this factor to model the
  /// testbed's slower CPU executing the (sequential) partitioner.
  double partition_time_scale = 150.0;
  /// Data redistribution runs well below line rate (pack/unpack,
  /// serialization, synchronization barriers); migration bytes are charged
  /// at bandwidth / this factor.
  double redistribution_overhead = 6.0;
};

/// Per-step timing breakdown.
struct StepTime {
  double compute_s = 0.0;  ///< slowest processor's compute time
  double comm_s = 0.0;     ///< slowest processor's ghost-exchange time
  double total_s = 0.0;    ///< max over processors of (compute + comm)
  std::vector<double> proc_busy_s;  ///< per-processor compute+comm
};

/// State-independent mapping of an assignment: per-processor work,
/// ghost-face traffic and message counts.  Computed once per partition and
/// then timed against any (time-varying) cluster state.
struct MappedLoad {
  std::vector<double> work;        ///< cell-updates per coarse step
  std::vector<double> face_cells;  ///< ghost-face cells per coarse step
  /// Substep-weighted ghost messages per coarse step: one exchange per
  /// (neighbor, level) pair per level substep — jagged fine-grain
  /// boundaries that touch many neighbors across refined regions pay for
  /// it here.
  std::vector<double> messages;
  /// Federated grids only: total ghost-face cells and substep-weighted
  /// messages crossing site boundaries (charged against the shared WAN).
  double wan_face_cells = 0.0;
  double wan_messages = 0.0;
  /// Total cut-face cost, each face counted once: the same value as
  /// partition::communication_volume of the assignment.
  double communication = 0.0;
  /// Mapped against a previous assignment only (empty otherwise): bytes
  /// each processor sends plus bytes it receives to redistribute the cells
  /// that changed owner, indexed up to the larger of the two nprocs.
  std::vector<double> migration_bytes;
  [[nodiscard]] std::size_t nprocs() const { return work.size(); }
};

class ExecutionModel {
 public:
  explicit ExecutionModel(ExecModelConfig config = {}) : config_(config) {}

  [[nodiscard]] const ExecModelConfig& config() const { return config_; }

  /// Precompute the per-processor load/traffic of an assignment.  When
  /// `proc_sites` is given (federated grids: site of the node each
  /// processor runs on), cross-site ghost traffic is tallied separately
  /// for the WAN charge.  When `previous` is given, the same sweep tallies
  /// the bytes each processor moves to get from `previous` to `owners`
  /// (MappedLoad::migration_bytes, read by migration_time).  Throws
  /// std::invalid_argument when either owner map does not cover the grid
  /// or holds an out-of-range owner, or `proc_sites` has fewer than
  /// owners.nprocs entries.
  [[nodiscard]] MappedLoad map(
      const partition::WorkGrid& grid, const partition::OwnerMap& owners,
      const std::vector<int>* proc_sites = nullptr,
      const partition::OwnerMap* previous = nullptr) const;

  /// Time one coarse step of a mapped load against the cluster's *current*
  /// state.  Processor i runs on cluster node i.
  [[nodiscard]] StepTime time_of(const MappedLoad& mapped,
                                 const grid::Cluster& cluster) const;

  /// Time to migrate the ownership differences tallied by
  /// map(grid, owners, sites, &previous) (data redistribution through the
  /// switch, bulk-synchronous).  0 for a load mapped without a previous
  /// assignment.
  [[nodiscard]] double migration_time(const MappedLoad& mapped,
                                      const grid::Cluster& cluster) const;

  /// Simulated cost of running the partitioning algorithm itself.
  [[nodiscard]] double partition_cost(double measured_seconds) const {
    return measured_seconds * config_.partition_time_scale;
  }

 private:
  ExecModelConfig config_;
};

/// Project an owner map from a coarser partitioning lattice onto a finer
/// canonical lattice: a copy when the dims are equal, otherwise a row-wise
/// gather.  Throws std::invalid_argument unless every dim is positive, the
/// source dims divide the target dims exactly, and `source` covers the
/// source lattice.
[[nodiscard]] partition::OwnerMap project_owners(
    const partition::OwnerMap& source, amr::IntVec3 source_dims,
    amr::IntVec3 target_dims);

}  // namespace pragma::core
