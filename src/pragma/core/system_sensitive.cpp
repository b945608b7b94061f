#include "pragma/core/system_sensitive.hpp"

#include <algorithm>
#include <memory>

#include "pragma/monitor/resource_monitor.hpp"
#include "pragma/partition/partitioner.hpp"
#include "pragma/sim/simulator.hpp"
#include "pragma/util/stats.hpp"

namespace pragma::core {

namespace {
/// Simulated seconds the monitor samples before capacities are read.
constexpr double kWarmupS = 30.0;
}  // namespace

SystemSensitiveResult run_system_sensitive_experiment(
    const amr::AdaptationTrace& trace, const SystemSensitiveConfig& config) {
  // ---- Testbed: heterogeneous commodity cluster + synthetic load + NWS.
  sim::Simulator simulator;
  util::Rng cluster_rng(config.seed, 1);
  grid::Cluster cluster = grid::ClusterBuilder::heterogeneous(
      config.nprocs, cluster_rng, /*base_gflops=*/0.5, /*memory_mib=*/512.0,
      /*bandwidth_mbps=*/100.0, /*latency_s=*/150e-6,
      config.capacity_spread);
  grid::LoadGenerator loadgen(simulator, cluster, config.load,
                              util::Rng(config.seed, 2));
  monitor::ResourceMonitor nws(simulator, cluster, {},
                               util::Rng(config.seed, 3));
  loadgen.start();
  nws.start();

  // Warm up so the monitor has real history when capacities are read.
  simulator.run(kWarmupS);

  // ---- Fig. 4: monitoring tool -> capacity calculator -> partitioner.
  const monitor::CapacityCalculator calculator(config.weights);
  monitor::RelativeCapacities capacities = calculator.from_current(nws);

  const auto partitioner = partition::make_partitioner(config.partitioner);
  const std::vector<double> equal = partition::equal_targets(config.nprocs);

  const ExecutionModel model(config.exec);

  SystemSensitiveResult result;
  result.nprocs = config.nprocs;
  result.capacities = capacities;

  util::Accumulator default_imbalance;
  util::Accumulator sensitive_imbalance;

  // ---- Replay the trace once, timing both schemes against the *same*
  // evolving cluster state (lower-variance analogue of the paper's
  // back-to-back runs).
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const amr::Snapshot& snapshot = trace.at(i);
    const int steps_covered = trace.steps_covered(i);

    if (config.dynamic_capacities)
      capacities = calculator.from_current(nws);

    // Grids come from the shared cache when one is configured, so the
    // Table 5 processor-count sweep rasterizes each snapshot only once.
    // The canonical grid is the native one when the keys match.
    const auto grid_for = [&](int grain, partition::CurveKind curve) {
      return partition::shared_or_built(config.workgrid_cache, i,
                                        snapshot.hierarchy, grain, curve);
    };
    const std::shared_ptr<const partition::WorkGrid> canonical =
        grid_for(kCanonicalGrain, kCanonicalCurve);
    const int grain = partitioner->preferred_grain();
    const std::shared_ptr<const partition::WorkGrid> native =
        canonical->grain() == grain &&
                canonical->curve() == partitioner->curve()
            ? canonical
            : grid_for(grain, partitioner->curve());

    auto project = [&](const partition::PartitionResult& r) {
      return project_owners(r.owners, native->lattice_dims(),
                            canonical->lattice_dims());
    };
    const partition::OwnerMap owners_default =
        project(partitioner->partition(*native, equal));
    const partition::OwnerMap owners_sensitive =
        project(partitioner->partition(*native, capacities.fraction));

    const MappedLoad mapped_default = model.map(*canonical, owners_default);
    const MappedLoad mapped_sensitive =
        model.map(*canonical, owners_sensitive);

    for (int s = 0; s < steps_covered; ++s) {
      const StepTime t_default = model.time_of(mapped_default, cluster);
      const StepTime t_sensitive = model.time_of(mapped_sensitive, cluster);
      result.default_runtime_s += t_default.total_s;
      result.sensitive_runtime_s += t_sensitive.total_s;

      const double mean_default =
          util::mean(t_default.proc_busy_s);
      if (mean_default > 0.0)
        default_imbalance.add(t_default.total_s / mean_default - 1.0);
      const double mean_sensitive = util::mean(t_sensitive.proc_busy_s);
      if (mean_sensitive > 0.0)
        sensitive_imbalance.add(t_sensitive.total_s / mean_sensitive - 1.0);

      // Advance the environment by the reference (default) step time so
      // background load and monitoring evolve on the same clock for both
      // schemes.
      simulator.run(simulator.now() + t_default.total_s);
    }
  }

  result.default_imbalance = default_imbalance.mean();
  result.sensitive_imbalance = sensitive_imbalance.mean();
  if (result.default_runtime_s > 0.0)
    result.improvement = (result.default_runtime_s -
                          result.sensitive_runtime_s) /
                         result.default_runtime_s;
  loadgen.stop();
  nws.stop();
  return result;
}

}  // namespace pragma::core
