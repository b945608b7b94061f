#include "pragma/core/trace_runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "pragma/obs/tracer.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::core {

TraceRunner::TraceRunner(const amr::AdaptationTrace& trace,
                         const grid::Cluster& cluster, TraceRunConfig config)
    : trace_(trace),
      cluster_(cluster),
      config_(std::move(config)),
      model_(config_.exec) {
  if (trace_.empty()) throw std::invalid_argument("TraceRunner: empty trace");
  if (config_.nprocs == 0 || config_.nprocs > cluster_.size())
    throw std::invalid_argument("TraceRunner: bad processor count");
  if (config_.targets.empty())
    config_.targets = partition::equal_targets(config_.nprocs);
  if (config_.targets.size() != config_.nprocs)
    throw std::invalid_argument("TraceRunner: targets/nprocs mismatch");
  config_.threads = util::resolve_threads(config_.threads);
  if (config_.obs.any()) obs::apply(config_.obs);
  if (cluster_.federated())
    for (std::size_t p = 0; p < config_.nprocs; ++p)
      sites_.push_back(cluster_.site_of(static_cast<grid::NodeId>(p)));
}

RunSummary TraceRunner::run_static(
    const std::string& partitioner_name) const {
  const auto partitioner = partition::make_partitioner(partitioner_name);
  return replay(partitioner_name, partitioner.get(), nullptr);
}

RunSummary TraceRunner::run_adaptive(
    const policy::PolicyBase& policies) const {
  MetaPartitioner meta(policies, config_.meta);
  return replay("adaptive", nullptr, &meta);
}

RunSummary TraceRunner::replay(const std::string& label,
                               const partition::Partitioner* fixed,
                               MetaPartitioner* meta) const {
  PRAGMA_SPAN_VAR(span, "core", "TraceRunner.replay");
  span.annotate("label", label);
  span.annotate("snapshots", trace_.size());
  RunSummary summary;
  summary.label = label;
  // Imbalance of the current partition at the regrid it was computed
  // (adaptive runs: the load-threshold trigger compares drift to this).
  double baseline_imbalance = 0.0;

  partition::OwnerMap previous_canonical;
  bool has_previous = false;
  // The previous partition mapped onto this snapshot's grid: computed as
  // the stale term of the previous iteration, it is both the reuse check's
  // loads and, when the partition is kept, the fresh mapping.
  MappedLoad carried;
  const std::vector<int>* sites = sites_.empty() ? nullptr : &sites_;
  // evaluate_pac's imbalance: targets normalised by their sum, so that
  // scaling every target leaves records and reuse decisions unchanged.
  double target_sum = 0.0;
  for (const double t : config_.targets) target_sum += t;
  if (target_sum <= 0.0) target_sum = 1.0;
  const auto imbalance = [&](const std::vector<double>& loads,
                             double total) {
    double worst = 0.0;
    for (std::size_t p = 0; p < loads.size(); ++p) {
      const double share = config_.targets[p] / target_sum;
      if (share <= 0.0) continue;
      worst = std::max(worst, loads[p] / (share * total));
    }
    return total > 0.0 ? std::max(0.0, worst - 1.0) : 0.0;
  };

  double weighted_imbalance = 0.0;
  double weighted_efficiency = 0.0;
  double total_steps = 0.0;

  // A grid the replay does not already hold comes from the shared cache
  // when a caller shares one across runs, else it is built: the replay
  // requests each grid once.
  const auto grid = [&](std::size_t index, int grain,
                        partition::CurveKind curve) {
    return partition::shared_or_built(config_.shared_cache, index,
                                      trace_.at(index).hierarchy, grain,
                                      curve, config_.threads);
  };
  // Snapshot i+1's canonical grid, built for snapshot i's stale term.
  std::shared_ptr<const partition::WorkGrid> next_canonical;
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    if (config_.should_abort && config_.should_abort()) break;
    const amr::Snapshot& snapshot = trace_.at(i);
    const amr::GridHierarchy& hierarchy = snapshot.hierarchy;

    const int steps_covered = trace_.steps_covered(i);

    const partition::Partitioner& partitioner =
        meta != nullptr ? meta->select(trace_, i) : *fixed;

    const std::shared_ptr<const partition::WorkGrid> canonical_ptr =
        next_canonical ? std::move(next_canonical)
                       : grid(i, kCanonicalGrain, kCanonicalCurve);
    const partition::WorkGrid& canonical = *canonical_ptr;

    // Agent-triggered repartitioning (adaptive runs only): keep the
    // previous partition while its imbalance on the *current* workload has
    // not drifted more than the trigger threshold above the imbalance it
    // had when it was computed — saving the partitioning and redistribution
    // costs that static schemes pay at every regrid.  In dynamic phases the
    // drift crosses the threshold almost immediately, so repartitioning
    // stays regrid-frequent there.
    const bool reuse_previous =
        meta != nullptr && has_previous &&
        config_.repartition_threshold > 0.0 &&
        imbalance(carried.work, canonical.total_work()) <
            baseline_imbalance + config_.repartition_threshold;

    partition::OwnerMap owners;
    partition::PartitionResult result;
    if (reuse_previous) {
      owners = previous_canonical;
      result.partitioner = summary.records.back().partitioner;
      result.partition_seconds = 0.0;
    } else {
      // Partition at the partitioner's preferred granularity/curve (unless
      // a policy configured a grain for this selection), then project onto
      // the canonical lattice used by the execution model (so that
      // migration is comparable across partitioners).  The canonical grid
      // is the native one when the keys match (G-MISP+SP's).
      const int grain = (meta != nullptr && meta->current_grain() > 0)
                            ? meta->current_grain()
                            : partitioner.preferred_grain();
      const std::shared_ptr<const partition::WorkGrid> native =
          canonical.grain() == grain && canonical.curve() == partitioner.curve()
              ? canonical_ptr
              : grid(i, grain, partitioner.curve());
      result = partitioner.partition(*native, config_.targets);
      if (config_.modeled_partition_s_per_cell > 0.0)
        result.partition_seconds =
            static_cast<double>(native->cell_count()) *
            config_.modeled_partition_s_per_cell;
      owners = project_owners(result.owners, native->lattice_dims(),
                              canonical.lattice_dims());
    }

    // A partition computed at this regrid is applied until the next one,
    // during which the refinement pattern keeps evolving: the first half of
    // the covered steps run against this snapshot's workload, the second
    // half against the next snapshot's (the "stale partition" effect that
    // penalizes expensive balancing in highly dynamic phases).  A fresh
    // mapping also tallies the migration from the previous partition; a
    // kept one moves nothing.
    const MappedLoad mapped =
        reuse_previous
            ? std::move(carried)
            : model_.map(canonical, owners, sites,
                         has_previous ? &previous_canonical : nullptr);
    const StepTime fresh = model_.time_of(mapped, cluster_);
    StepTime stale = fresh;
    if (i + 1 < trace_.size()) {
      next_canonical = grid(i + 1, kCanonicalGrain, kCanonicalCurve);
      carried = model_.map(*next_canonical, owners, sites);
      stale = model_.time_of(carried, cluster_);
    }
    const double sw = std::clamp(config_.stale_weight, 0.0, 1.0);
    StepTime step;
    step.total_s = fresh.total_s * (1.0 - sw) + stale.total_s * sw;
    step.compute_s = fresh.compute_s * (1.0 - sw) + stale.compute_s * sw;
    step.comm_s = fresh.comm_s * (1.0 - sw) + stale.comm_s * sw;

    SnapshotRecord record;
    record.step = snapshot.step;
    record.partitioner = result.partitioner;
    if (meta && !meta->history().empty())
      record.octant =
          octant::to_string(meta->history().back().state.octant());
    record.step_time_s = step.total_s;

    record.imbalance = imbalance(mapped.work, canonical.total_work());
    record.comm_volume = mapped.communication;
    if (!reuse_previous) baseline_imbalance = record.imbalance;

    record.partition_s = model_.partition_cost(result.partition_seconds);
    record.migration_s = model_.migration_time(mapped, cluster_);

    // AMR efficiency: adaptivity saving relative to a uniformly fine grid,
    // with the partitioner's ghost overhead charged as extra work.
    const double uniform = hierarchy.uniform_fine_work();
    record.amr_efficiency =
        uniform > 0.0
            ? 1.0 - (hierarchy.total_work() + 0.5 * record.comm_volume) /
                        uniform
            : 0.0;

    const auto steps = static_cast<double>(steps_covered);
    summary.runtime_s +=
        step.total_s * steps + record.migration_s + record.partition_s;
    summary.compute_s += step.compute_s * steps;
    summary.comm_s += step.comm_s * steps;
    summary.migration_s += record.migration_s;
    summary.partition_s += record.partition_s;
    summary.max_imbalance = std::max(summary.max_imbalance, record.imbalance);
    weighted_imbalance += record.imbalance * steps;
    weighted_efficiency += record.amr_efficiency * steps;
    total_steps += steps;

    summary.records.push_back(std::move(record));
    previous_canonical = std::move(owners);
    has_previous = true;
  }

  if (total_steps > 0.0) {
    summary.mean_imbalance = weighted_imbalance / total_steps;
    summary.amr_efficiency = weighted_efficiency / total_steps;
  }
  if (meta) summary.switches = meta->switch_count();
  return summary;
}

}  // namespace pragma::core
