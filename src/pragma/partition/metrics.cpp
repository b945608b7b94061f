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

double communication_volume(const WorkGrid& grid, const OwnerMap& owners) {
  if (owners.owner.size() != grid.cell_count())
    throw std::invalid_argument("communication_volume: size mismatch");
  PRAGMA_SPAN_VAR(span, "partition", "communication_volume");
  span.annotate("cells", grid.cell_count());
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

double migration_fraction(const WorkGrid& grid, const OwnerMap& previous,
                          const OwnerMap& current) {
  if (previous.owner.size() != grid.cell_count() ||
      current.owner.size() != grid.cell_count())
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
