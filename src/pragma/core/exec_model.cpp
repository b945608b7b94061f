#include "pragma/core/exec_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace pragma::core {

namespace {

/// Substeps per coarse step of the levels in `mask`: the sum of r^l over
/// its set bits, in ascending level order (integer-valued, like
/// partition::face_cost).
double substeps(std::uint32_t mask, int num_levels, int ratio) {
  double sum = 0.0;
  double r = 1.0;
  for (int l = 0; l < num_levels; ++l) {
    if (mask & (1u << l)) sum += r;
    r *= static_cast<double>(ratio);
  }
  return sum;
}

/// The map() sweep, generic over how a level mask becomes a face cost and
/// a substep count (table lookups, or per-mask folds on grids too deep to
/// tabulate).
///
/// Work and substep terms are integer-valued doubles, so their sums are
/// exact in any grouping while they stay below partition::kExactSumBound.
/// With `regroup` (map() checks that bound from the grid) each processor's
/// work is one prefix-sum difference per SFC fragment and fragment
/// messages are summed per fragment.  Without it both are added term by
/// term, work in lattice order, which is processor_loads' order.  Face
/// costs are added face by face in lattice visit order either way, the
/// order of partition::communication_volume's fold, so
/// MappedLoad::communication equals it bit for bit.  Migration bytes are
/// added cell by cell in lattice order: bytes_per_cell need not be an
/// integer, so that order is part of the result.
template <class FaceCost, class Substeps>
void sweep(const partition::WorkGrid& grid, const int* owner,
           const int* site, const int* previous, double bytes_per_cell,
           bool regroup, const FaceCost& face_cost,
           const Substeps& substeps_of, MappedLoad& mapped,
           double* outgoing, double* incoming) {
  const std::size_t nprocs = mapped.work.size();
  const amr::IntVec3 dims = grid.lattice_dims();
  const std::uint32_t* levels = grid.levels().data();
  double* work = mapped.work.data();
  double* face = mapped.face_cells.data();
  // Cross-site exchanges: one WAN message per (processor pair, level) per
  // substep, not per face.  charged[a * nprocs + b] (a < b) holds the
  // levels already counted for the pair.
  std::vector<std::uint32_t> charged(site != nullptr ? nprocs * nprocs : 0,
                                     0u);

  double communication = 0.0;
  const auto cut = [&](int oc, int on, std::uint32_t shared) {
    const double cost = face_cost(shared);
    face[oc] += cost;
    face[on] += cost;
    communication += cost;
    if (site != nullptr && site[oc] != site[on]) {
      mapped.wan_face_cells += cost;
      std::uint32_t& seen =
          charged[static_cast<std::size_t>(std::min(oc, on)) * nprocs +
                  static_cast<std::size_t>(std::max(oc, on))];
      mapped.wan_messages += substeps_of(shared & ~seen);
      seen |= shared;
    }
  };
  // Every face is visited once from its lower cell.  A face past the
  // lattice boundary resolves to the cell itself, whose owner matches.
  const std::size_t sy = static_cast<std::size_t>(dims.x);
  const std::size_t sz = sy * static_cast<std::size_t>(dims.y);
  for (int z = 0; z < dims.z; ++z) {
    const std::size_t zstep = z + 1 < dims.z ? sz : 0;
    for (int y = 0; y < dims.y; ++y) {
      const std::size_t ystep = y + 1 < dims.y ? sy : 0;
      const std::size_t base =
          sy * static_cast<std::size_t>(y) + sz * static_cast<std::size_t>(z);
      for (int x = 0; x < dims.x; ++x) {
        const std::size_t c = base + static_cast<std::size_t>(x);
        const std::size_t xn = c + static_cast<std::size_t>(x + 1 < dims.x);
        const int oc = owner[c];
        const std::uint32_t lc = levels[c];
        if (!regroup) work[oc] += grid.work(c);
        // Cut faces are the minority (5-17% per axis for the Table 4
        // partitions); keeping their handling out of line keeps this loop
        // small: ~9% more perfbench trace_replay throughput with GCC 12
        // -O3 on a 4-core x86 VM.
        const auto visit = [&](std::size_t n) {
          if (owner[n] != oc) [[unlikely]]
            cut(oc, owner[n], lc & levels[n]);
        };
        visit(xn);
        visit(c + ystep);
        visit(c + zstep);
      }
      // The row's migration, after its faces: still lattice order, and the
      // face loop stays free of it.
      if (previous == nullptr) continue;
      for (std::size_t c = base; c < base + sy; ++c) {
        if (previous[c] == owner[c]) continue;
        const double bytes = grid.storage(c) * bytes_per_cell;
        outgoing[previous[c]] += bytes;
        incoming[owner[c]] += bytes;
      }
    }
  }
  mapped.communication = communication;

  // Message count = per-level ownership fragmentation: the number of
  // maximal same-owner runs of level-l cells along the SFC order, per
  // substep.  Each fragment is a patch piece with its own ghost exchanges
  // and metadata — this is where fine-grain partitioning of scattered
  // refinement patterns pays its "partitioning induced overheads".  A
  // fragment of level l starts wherever l is present but was not in the
  // previous cell of the same owner: two boundary exchanges per substep.
  const std::vector<std::uint32_t>& order = grid.order();
  const partition::PrefixSums& prefix = grid.prefix_sums();
  double* messages = mapped.messages.data();
  int run_owner = owner[order.front()];
  std::size_t run_start = 0;
  double run_substeps = 0.0;
  std::uint32_t previous_levels = 0;
  const auto close_run = [&](std::size_t end) {
    if (!regroup) return;
    messages[run_owner] += 2.0 * run_substeps;
    work[run_owner] += prefix.sum(run_start, end);
  };
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint32_t c = order[k];
    const int o = owner[c];
    if (o != run_owner) {
      close_run(k);
      run_owner = o;
      run_start = k;
      run_substeps = 0.0;
      previous_levels = 0;
    }
    const double steps = substeps_of(levels[c] & ~previous_levels);
    if (regroup)
      run_substeps += steps;
    else
      messages[o] += 2.0 * steps;
    previous_levels = levels[c];
  }
  close_run(order.size());
}

}  // namespace

MappedLoad ExecutionModel::map(const partition::WorkGrid& grid,
                               const partition::OwnerMap& owners,
                               const std::vector<int>* proc_sites,
                               const partition::OwnerMap* previous) const {
  partition::validate_owners("ExecutionModel::map", grid, owners);
  if (previous != nullptr)
    partition::validate_owners("ExecutionModel::map (previous)", grid,
                               *previous);
  const auto nprocs = static_cast<std::size_t>(owners.nprocs);
  if (proc_sites != nullptr && proc_sites->size() < nprocs)
    throw std::invalid_argument(
        "ExecutionModel::map: fewer proc_sites than processors");

  MappedLoad mapped;
  mapped.work.assign(nprocs, 0.0);
  mapped.face_cells.assign(nprocs, 0.0);
  mapped.messages.assign(nprocs, 0.0);
  // Bytes sent by each processor of either assignment, then bytes received.
  const std::size_t movers =
      previous != nullptr
          ? std::max(nprocs, static_cast<std::size_t>(previous->nprocs))
          : 0;
  std::vector<double> moved(2 * movers, 0.0);
  const int levels = grid.num_levels();
  const int ratio = grid.ratio();
  // A processor's fragment count is at most two substep sets per cell and
  // the WAN count three per cell, so one bound covers every substep sum.
  const bool regroup =
      grid.work_sums_exact() &&
      static_cast<double>(grid.cell_count()) * 3.0 *
              substeps(~0u, levels, ratio) <
          partition::kExactSumBound;
  const auto run = [&](const auto& face_cost, const auto& substeps_of) {
    if (grid.cell_count() == 0) return;
    sweep(grid, owners.owner.data(),
          proc_sites != nullptr ? proc_sites->data() : nullptr,
          previous != nullptr ? previous->owner.data() : nullptr,
          config_.bytes_per_cell, regroup, face_cost, substeps_of, mapped,
          moved.data(), moved.data() + movers);
  };
  const std::vector<double> faces = partition::face_cost_table(grid);
  if (faces.empty()) {
    run(
        [&](std::uint32_t mask) {
          return partition::face_cost(mask, grid.grain(), levels, ratio);
        },
        [&](std::uint32_t mask) { return substeps(mask, levels, ratio); });
  } else {
    std::vector<double> steps(faces.size());
    for (std::size_t mask = 0; mask < steps.size(); ++mask)
      steps[mask] = substeps(static_cast<std::uint32_t>(mask), levels, ratio);
    const double* face_table = faces.data();
    const double* step_table = steps.data();
    run([face_table](std::uint32_t mask) { return face_table[mask]; },
        [step_table](std::uint32_t mask) { return step_table[mask]; });
  }
  if (previous != nullptr) {
    mapped.migration_bytes.resize(movers);
    for (std::size_t p = 0; p < movers; ++p)
      mapped.migration_bytes[p] = moved[p] + moved[movers + p];
  }
  return mapped;
}

StepTime ExecutionModel::time_of(const MappedLoad& mapped,
                                 const grid::Cluster& cluster) const {
  const std::size_t nprocs = mapped.nprocs();
  if (nprocs > cluster.size())
    throw std::invalid_argument("time_of: more processors than nodes");

  StepTime result;
  result.proc_busy_s.assign(nprocs, 0.0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    // A processor with nothing assigned costs nothing — even a failed node
    // (after its work has been migrated away) must not stall the step.
    if (mapped.work[p] <= 0.0 && mapped.face_cells[p] <= 0.0 &&
        mapped.messages[p] <= 0.0)
      continue;
    const grid::Node& node = cluster.node(static_cast<grid::NodeId>(p));
    const double flops = mapped.work[p] * config_.flops_per_cell_update;
    const double compute = node.compute_time(flops / 1e9);  // gflop units

    const double bytes = mapped.face_cells[p] * config_.bytes_per_face_cell;
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    const double comm = (rate > 0.0 ? bytes / rate : 0.0) +
                        mapped.messages[p] * config_.message_latency_s;

    result.proc_busy_s[p] = compute + comm;
    result.compute_s = std::max(result.compute_s, compute);
    result.comm_s = std::max(result.comm_s, comm);
    result.total_s = std::max(result.total_s, compute + comm);
  }

  // Federated grids: cross-site ghost traffic shares one WAN link; the
  // bulk-synchronous step waits for it on top of the slowest processor.
  if (cluster.federated() && mapped.wan_face_cells > 0.0) {
    const double rate = cluster.wan().effective_bytes_per_s();
    const double wan_s =
        (rate > 0.0
             ? mapped.wan_face_cells * config_.bytes_per_face_cell / rate
             : 0.0) +
        mapped.wan_messages * cluster.wan().spec().latency_s;
    result.comm_s += wan_s;
    result.total_s += wan_s;
  }
  return result;
}

double ExecutionModel::migration_time(const MappedLoad& mapped,
                                      const grid::Cluster& cluster) const {
  const std::vector<double>& bytes = mapped.migration_bytes;
  double worst = 0.0;
  for (std::size_t p = 0; p < bytes.size() && p < cluster.size(); ++p) {
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    if (rate <= 0.0) continue;
    worst = std::max(worst, bytes[p] / rate);
  }
  return worst * config_.redistribution_overhead;
}

partition::OwnerMap project_owners(const partition::OwnerMap& source,
                                   amr::IntVec3 source_dims,
                                   amr::IntVec3 target_dims) {
  if (source_dims.x <= 0 || source_dims.y <= 0 || source_dims.z <= 0 ||
      target_dims.x <= 0 || target_dims.y <= 0 || target_dims.z <= 0)
    throw std::invalid_argument("project_owners: dims must be positive");
  if (source.owner.size() != static_cast<std::size_t>(source_dims.x) *
                                 static_cast<std::size_t>(source_dims.y) *
                                 static_cast<std::size_t>(source_dims.z))
    throw std::invalid_argument("project_owners: source size mismatch");
  if (target_dims.x % source_dims.x != 0 ||
      target_dims.y % source_dims.y != 0 ||
      target_dims.z % source_dims.z != 0)
    throw std::invalid_argument("project_owners: dims must divide");
  if (source_dims == target_dims) return source;
  const auto fx = static_cast<std::size_t>(target_dims.x / source_dims.x);
  const int fy = target_dims.y / source_dims.y;
  const int fz = target_dims.z / source_dims.z;
  const auto nx = static_cast<std::size_t>(target_dims.x);
  const auto source_row = static_cast<std::size_t>(source_dims.x);
  const auto source_plane =
      source_row * static_cast<std::size_t>(source_dims.y);
  // Source x of every target x, so the gather divides once per x.
  std::vector<std::size_t> source_x(nx);
  for (std::size_t x = 0; x < nx; ++x) source_x[x] = x / fx;

  partition::OwnerMap out;
  out.nprocs = source.nprocs;
  out.owner.resize(nx * static_cast<std::size_t>(target_dims.y) *
                   static_cast<std::size_t>(target_dims.z));
  int* row = out.owner.data();
  for (int z = 0; z < target_dims.z; ++z)
    for (int y = 0; y < target_dims.y; ++y, row += nx) {
      const int* from = source.owner.data() +
                        source_plane * static_cast<std::size_t>(z / fz) +
                        source_row * static_cast<std::size_t>(y / fy);
      for (std::size_t x = 0; x < nx; ++x) row[x] = from[source_x[x]];
    }
  return out;
}

}  // namespace pragma::core
