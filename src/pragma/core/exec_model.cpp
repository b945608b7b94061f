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
/// tabulate).  Every cost, work and substep term is an integer-valued
/// double far below 2^53, so the per-run partial sums below are exact:
/// the result does not depend on how the terms are grouped.
template <class FaceCost, class Substeps>
void sweep(const partition::WorkGrid& grid, const int* owner,
           const int* site, const FaceCost& face_cost,
           const Substeps& substeps_of, MappedLoad& mapped) {
  if (grid.cell_count() == 0) return;
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

  // Runs of same-owner cells keep the owner's work and own-side face
  // cost in registers; accumulating into work[owner] per cell would chain
  // every iteration through a store-to-load forward.
  int run_owner = owner[0];
  double run_work = 0.0;
  double run_face = 0.0;
  double communication = 0.0;
  const auto cut = [&](int oc, int on, std::uint32_t shared) {
    const double cost = face_cost(shared);
    run_face += cost;
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
        if (oc != run_owner) {
          work[run_owner] += run_work;
          face[run_owner] += run_face;
          run_owner = oc;
          run_work = 0.0;
          run_face = 0.0;
        }
        run_work += grid.work(c);
        const auto visit = [&](std::size_t n) {
          if (owner[n] != oc) cut(oc, owner[n], lc & levels[n]);
        };
        visit(xn);
        visit(c + ystep);
        visit(c + zstep);
      }
    }
  }
  work[run_owner] += run_work;
  face[run_owner] += run_face;
  mapped.communication = communication;

  // Message count = per-level ownership fragmentation: the number of
  // maximal same-owner runs of level-l cells along the SFC order, per
  // substep.  Each fragment is a patch piece with its own ghost exchanges
  // and metadata — this is where fine-grain partitioning of scattered
  // refinement patterns pays its "partitioning induced overheads".  A
  // fragment of level l starts wherever l is present but was not in the
  // previous cell of the same owner: two boundary exchanges per substep.
  const std::vector<std::uint32_t>& order = grid.order();
  double* messages = mapped.messages.data();
  run_owner = owner[order.front()];
  double run_substeps = 0.0;
  std::uint32_t previous_levels = 0;
  for (const std::uint32_t c : order) {
    const int o = owner[c];
    if (o != run_owner) {
      messages[run_owner] += 2.0 * run_substeps;
      run_owner = o;
      run_substeps = 0.0;
      previous_levels = 0;
    }
    run_substeps += substeps_of(levels[c] & ~previous_levels);
    previous_levels = levels[c];
  }
  messages[run_owner] += 2.0 * run_substeps;
}

}  // namespace

MappedLoad ExecutionModel::map(const partition::WorkGrid& grid,
                               const partition::OwnerMap& owners,
                               const std::vector<int>* proc_sites) const {
  partition::validate_owners("ExecutionModel::map", grid, owners);
  const auto nprocs = static_cast<std::size_t>(owners.nprocs);
  if (proc_sites != nullptr && proc_sites->size() < nprocs)
    throw std::invalid_argument(
        "ExecutionModel::map: fewer proc_sites than processors");

  MappedLoad mapped;
  mapped.work.assign(nprocs, 0.0);
  mapped.face_cells.assign(nprocs, 0.0);
  mapped.messages.assign(nprocs, 0.0);
  const int* site = proc_sites != nullptr ? proc_sites->data() : nullptr;
  const int levels = grid.num_levels();
  const int ratio = grid.ratio();
  const std::vector<double> faces = partition::face_cost_table(grid);
  if (faces.empty()) {
    sweep(
        grid, owners.owner.data(), site,
        [&](std::uint32_t mask) {
          return partition::face_cost(mask, grid.grain(), levels, ratio);
        },
        [&](std::uint32_t mask) { return substeps(mask, levels, ratio); },
        mapped);
    return mapped;
  }
  std::vector<double> steps(faces.size());
  for (std::size_t mask = 0; mask < steps.size(); ++mask)
    steps[mask] = substeps(static_cast<std::uint32_t>(mask), levels, ratio);
  const double* face_table = faces.data();
  const double* step_table = steps.data();
  sweep(
      grid, owners.owner.data(), site,
      [face_table](std::uint32_t mask) { return face_table[mask]; },
      [step_table](std::uint32_t mask) { return step_table[mask]; }, mapped);
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

StepTime ExecutionModel::step_time(const partition::WorkGrid& grid,
                                   const partition::OwnerMap& owners,
                                   const grid::Cluster& cluster) const {
  return time_of(map(grid, owners), cluster);
}

double ExecutionModel::migration_time(const partition::WorkGrid& grid,
                                      const partition::OwnerMap& previous,
                                      const partition::OwnerMap& current,
                                      const grid::Cluster& cluster) const {
  if (previous.owner.size() != current.owner.size())
    throw std::invalid_argument("migration_time: lattice mismatch");
  partition::validate_owners("migration_time", grid, previous);
  partition::validate_owners("migration_time", grid, current);
  const auto nprocs = static_cast<std::size_t>(
      std::max(previous.nprocs, current.nprocs));
  std::vector<double> outgoing(nprocs, 0.0);
  std::vector<double> incoming(nprocs, 0.0);
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const int from = previous.owner[c];
    const int to = current.owner[c];
    if (from == to) continue;
    const double bytes = grid.storage(c) * config_.bytes_per_cell;
    outgoing[static_cast<std::size_t>(from)] += bytes;
    incoming[static_cast<std::size_t>(to)] += bytes;
  }
  double worst = 0.0;
  for (std::size_t p = 0; p < nprocs && p < cluster.size(); ++p) {
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    if (rate <= 0.0) continue;
    worst = std::max(worst, (outgoing[p] + incoming[p]) / rate);
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
  const int fx = target_dims.x / source_dims.x;
  const int fy = target_dims.y / source_dims.y;
  const int fz = target_dims.z / source_dims.z;

  partition::OwnerMap out;
  out.nprocs = source.nprocs;
  out.owner.resize(static_cast<std::size_t>(target_dims.x) *
                   static_cast<std::size_t>(target_dims.y) *
                   static_cast<std::size_t>(target_dims.z));
  for (int z = 0; z < target_dims.z; ++z)
    for (int y = 0; y < target_dims.y; ++y)
      for (int x = 0; x < target_dims.x; ++x) {
        const std::size_t src =
            static_cast<std::size_t>(x / fx) +
            static_cast<std::size_t>(source_dims.x) *
                (static_cast<std::size_t>(y / fy) +
                 static_cast<std::size_t>(source_dims.y) *
                     static_cast<std::size_t>(z / fz));
        const std::size_t dst =
            static_cast<std::size_t>(x) +
            static_cast<std::size_t>(target_dims.x) *
                (static_cast<std::size_t>(y) +
                 static_cast<std::size_t>(target_dims.y) *
                     static_cast<std::size_t>(z));
        out.owner[dst] = source.owner[src];
      }
  return out;
}

}  // namespace pragma::core
