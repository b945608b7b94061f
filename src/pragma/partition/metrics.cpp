#include "pragma/partition/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "pragma/obs/tracer.hpp"

namespace pragma::partition {

namespace {
/// Deepest grid whose 2^levels face-cost table is built.
constexpr int kFaceCostTableMaxLevels = 16;

/// Branchless lattice sweep using a precomputed cost table.  Boundary
/// faces resolve to the cell itself (owner difference 0), so the inner loop
/// is a straight-line select+gather chain; adding the resulting 0.0 terms
/// leaves the non-negative accumulator bitwise unchanged, which keeps the
/// fold order identical to the reference sweep's.
double sweep_table(const int* owner, const std::uint32_t* levels,
                   amr::IntVec3 dims, const double* table) {
  const std::size_t sy = static_cast<std::size_t>(dims.x);
  const std::size_t sz =
      static_cast<std::size_t>(dims.x) * static_cast<std::size_t>(dims.y);
  double total = 0.0;
  for (int z = 0; z < dims.z; ++z) {
    const std::size_t zstep = z + 1 < dims.z ? sz : 0;
    for (int y = 0; y < dims.y; ++y) {
      const std::size_t ystep = y + 1 < dims.y ? sy : 0;
      const std::size_t base =
          sy * static_cast<std::size_t>(y) + sz * static_cast<std::size_t>(z);
      for (int x = 0; x < dims.x; ++x) {
        const std::size_t c = base + static_cast<std::size_t>(x);
        const std::size_t xn = c + static_cast<std::size_t>(x + 1 < dims.x);
        const std::size_t yn = c + ystep;
        const std::size_t zn = c + zstep;
        const int oc = owner[c];
        const std::uint32_t lc = levels[c];
        total += oc != owner[xn] ? table[lc & levels[xn]] : 0.0;
        total += oc != owner[yn] ? table[lc & levels[yn]] : 0.0;
        total += oc != owner[zn] ? table[lc & levels[zn]] : 0.0;
      }
    }
  }
  return total;
}
}  // namespace

void validate_owners(const char* who, const WorkGrid& grid,
                     const OwnerMap& owners) {
  if (owners.owner.size() != grid.cell_count())
    throw std::invalid_argument(std::string(who) + ": size mismatch");
  // Branch-free so the pass vectorizes; a negative owner wraps past
  // nprocs as unsigned.  The flag is an unsigned, not a bool: GCC does not
  // vectorize a bool OR-reduction.
  const auto nprocs = static_cast<unsigned>(std::max(owners.nprocs, 0));
  unsigned out_of_range = 0;
  for (int owner : owners.owner)
    out_of_range |= static_cast<unsigned>(owner) >= nprocs;
  if (out_of_range != 0)
    throw std::invalid_argument(std::string(who) + ": owner out of range");
}

double face_cost(std::uint32_t mask, int grain, int num_levels, int ratio) {
  double cost = 0.0;
  double r = 1.0;
  for (int l = 0; l < num_levels; ++l) {
    if (mask & (1u << l)) {
      const double edge = static_cast<double>(grain) * r;
      cost += edge * edge * r;
    }
    r *= static_cast<double>(ratio);
  }
  return cost;
}

std::vector<double> face_cost_table(const WorkGrid& grid) {
  if (grid.num_levels() > kFaceCostTableMaxLevels) return {};
  std::vector<double> table(std::size_t{1} << grid.num_levels(), 0.0);
  for (std::size_t mask = 1; mask < table.size(); ++mask)
    table[mask] = face_cost(static_cast<std::uint32_t>(mask), grid.grain(),
                            grid.num_levels(), grid.ratio());
  return table;
}

std::vector<double> processor_loads(const WorkGrid& grid,
                                    const OwnerMap& owners) {
  validate_owners("processor_loads", grid, owners);
  std::vector<double> loads(static_cast<std::size_t>(owners.nprocs), 0.0);
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    loads[static_cast<std::size_t>(owners.owner[c])] += grid.work(c);
  return loads;
}

std::vector<double> processor_storage(const WorkGrid& grid,
                                      const OwnerMap& owners) {
  validate_owners("processor_storage", grid, owners);
  std::vector<double> storage(static_cast<std::size_t>(owners.nprocs), 0.0);
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    storage[static_cast<std::size_t>(owners.owner[c])] += grid.storage(c);
  return storage;
}

double reference_communication_volume(const WorkGrid& grid,
                                      const OwnerMap& owners) {
  if (owners.owner.size() != grid.cell_count())
    throw std::invalid_argument(
        "reference_communication_volume: size mismatch");
  const amr::IntVec3 dims = grid.lattice_dims();
  const int g = grid.grain();

  // Every face is visited from its lower cell, x then y then z per cell.
  double total = 0.0;
  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x) {
        const std::size_t c = grid.linear({x, y, z});
        const auto face = [&](std::size_t n) {
          if (owners.owner[c] == owners.owner[n]) return;
          total += face_cost(
              grid.levels_present(c) & grid.levels_present(n), g,
              grid.num_levels(), grid.ratio());
        };
        if (x + 1 < dims.x) face(grid.linear({x + 1, y, z}));
        if (y + 1 < dims.y) face(grid.linear({x, y + 1, z}));
        if (z + 1 < dims.z) face(grid.linear({x, y, z + 1}));
      }
  return total;
}

double communication_volume(const WorkGrid& grid, const OwnerMap& owners) {
  if (owners.owner.size() != grid.cell_count())
    throw std::invalid_argument("communication_volume: size mismatch");
  PRAGMA_SPAN_VAR(span, "partition", "communication_volume");
  span.annotate("cells", grid.cell_count());
  const std::vector<double> table = face_cost_table(grid);
  if (table.empty()) return reference_communication_volume(grid, owners);
  return sweep_table(owners.owner.data(), grid.levels().data(),
                     grid.lattice_dims(), table.data());
}

double migration_fraction(const WorkGrid& grid, const OwnerMap& previous,
                          const OwnerMap& current) {
  if (previous.owner.size() != current.owner.size())
    throw std::invalid_argument("migration_fraction: size mismatch");
  double moved = 0.0;
  double total = 0.0;
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    total += grid.storage(c);
    if (previous.owner[c] != current.owner[c]) moved += grid.storage(c);
  }
  return total > 0.0 ? moved / total : 0.0;
}

PacMetrics evaluate_pac(const WorkGrid& grid, const PartitionResult& result,
                        std::span<const double> targets,
                        const OwnerMap* previous) {
  validate_owners("evaluate_pac", grid, result.owners);
  if (targets.size() != static_cast<std::size_t>(result.owners.nprocs))
    throw std::invalid_argument("evaluate_pac: targets/nprocs mismatch");
  PacMetrics metrics;

  const std::vector<double> loads = processor_loads(grid, result.owners);
  double tsum = 0.0;
  for (double t : targets) tsum += t;
  if (tsum <= 0.0) tsum = 1.0;
  const double total = grid.total_work();
  double worst = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double share = targets[i] / tsum;
    if (share <= 0.0) continue;
    worst = std::max(worst, loads[i] / (share * total));
  }
  metrics.load_imbalance = total > 0.0 ? std::max(0.0, worst - 1.0) : 0.0;

  metrics.communication = communication_volume(grid, result.owners);
  metrics.partition_time = result.partition_seconds;
  if (previous != nullptr)
    metrics.data_migration = migration_fraction(grid, *previous,
                                                result.owners);

  // Fragmentation: maximal same-owner runs along the SFC order.
  std::size_t fragments = 0;
  int last_owner = -1;
  for (std::uint32_t c : grid.order()) {
    const int owner = result.owners.owner[c];
    if (owner != last_owner) {
      ++fragments;
      last_owner = owner;
    }
  }
  const auto p = static_cast<double>(result.owners.nprocs);
  metrics.overhead =
      p > 0.0 ? std::max(0.0, (static_cast<double>(fragments) - p) / p) : 0.0;
  return metrics;
}

}  // namespace pragma::partition
