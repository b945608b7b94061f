// System-sensitive adaptive partitioning (Section 4.6, Fig. 4, Table 5).
//
// "Current system parameters are obtained using NWS and are used to compute
//  [the] relative computational capacities for the elements of the grid.
//  The system-sensitive partitioner for dynamic distribution and load
//  balancing then uses these relative capacities. [...] Once the relative
//  capacities of the processors are computed, the workload is distributed
//  proportionately among them."
//
// The experiment compares the capacity-weighted partitioner against the
// default equal-distribution scheme on a heterogeneous Linux-cluster model
// carrying synthetic background load; relative capacities are computed once
// before the simulation starts, exactly as in the paper.  Both schemes are
// costed on the canonical execution lattice (kCanonicalGrain,
// kCanonicalCurve), and every work grid is built serially.
#pragma once

#include <string>

#include "pragma/amr/trace.hpp"
#include "pragma/core/exec_model.hpp"
#include "pragma/grid/loadgen.hpp"
#include "pragma/monitor/capacity.hpp"
#include "pragma/partition/workgrid.hpp"

namespace pragma::core {

struct SystemSensitiveConfig {
  std::size_t nprocs = 32;
  std::uint64_t seed = 11;
  /// Heterogeneity of node peak speeds (coefficient of variation).
  double capacity_spread = 0.35;
  /// Synthetic background load (heterogeneous across nodes).  The defaults
  /// model *persistent* load heterogeneity — nodes with durably different
  /// background levels — which is what a once-at-start capacity snapshot
  /// can exploit (the paper computes relative capacities "only once before
  /// the start of the simulation").
  grid::LoadGeneratorConfig load{
      /*update_period_s=*/2.0,
      /*mean_cpu_load=*/0.35,
      /*reversion=*/0.10,
      /*volatility=*/0.03,
      /*burst_probability=*/0.002,
      /*burst_load=*/0.30,
      /*burst_duration_s=*/30.0,
      /*mean_link_utilization=*/0.08,
      /*node_bias_spread=*/0.8};
  /// Application-dependent capacity weights (Fig. 4 "Weights"): RM3D is
  /// compute-dominated.
  monitor::CapacityWeights weights{/*cpu=*/0.8, /*memory=*/0.1,
                                   /*bandwidth=*/0.1};
  ExecModelConfig exec;
  /// Partitioner used by both schemes.
  std::string partitioner = "G-MISP+SP";
  /// Recompute capacities at every regrid instead of once at start (an
  /// extension the paper leaves to future work; off to match Table 5).
  bool dynamic_capacities = false;
  /// Optional shared work-grid cache (keyed by snapshot index): experiments
  /// over the same trace — e.g. the Table 5 processor-count sweep — share
  /// one cache so each snapshot is rasterized once across all of them.
  /// Null builds each snapshot's grids once per call.
  partition::WorkGridCache* workgrid_cache = nullptr;
};

struct SystemSensitiveResult {
  std::size_t nprocs = 0;
  double default_runtime_s = 0.0;    ///< equal distribution
  double sensitive_runtime_s = 0.0;  ///< capacity-weighted distribution
  /// (default - sensitive) / default.
  double improvement = 0.0;
  monitor::RelativeCapacities capacities;
  /// Mean over steps of the effective-time imbalance (slowest/mean - 1).
  double default_imbalance = 0.0;
  double sensitive_imbalance = 0.0;
};

/// Run the Table 5 experiment for one processor count over `trace`.
[[nodiscard]] SystemSensitiveResult run_system_sensitive_experiment(
    const amr::AdaptationTrace& trace, const SystemSensitiveConfig& config);

}  // namespace pragma::core
