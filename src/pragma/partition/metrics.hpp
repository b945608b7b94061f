// The five-component PAC quality metric (Section 4.1).
//
// "The proposed metric for characterizing the quality of a PAC [tuple
//  <partitioner, application, computer system>] for the adaptive SAMR
//  meta-partitioner include Communication requirements, Load imbalance,
//  Amount of data migration, Partitioning time, and Partitioning induced
//  overheads."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pragma/partition/partitioner.hpp"

namespace pragma::partition {

struct PacMetrics {
  /// (1) Communication: total inter-processor ghost-exchange volume per
  /// coarse step (cell-faces, MIT-weighted across levels).
  double communication = 0.0;
  /// (2) Load imbalance: max_i(load_i / target_i) / total - 1, i.e. how far
  /// the most overloaded processor is above its proportional share
  /// (0 = perfectly proportional).  Reported as a fraction.
  double load_imbalance = 0.0;
  /// (3) Data migration: storage volume (cells, all levels) that changed
  /// owner relative to the previous assignment, as a fraction of the total
  /// storage.  0 when there is no previous assignment.
  double data_migration = 0.0;
  /// (4) Partitioning time in seconds (wall clock of the algorithm).
  double partition_time = 0.0;
  /// (5) Partitioning-induced overheads: fragmentation of ownership —
  /// the number of ownership fragments (maximal same-owner SFC runs) per
  /// processor above the ideal single fragment.
  double overhead = 0.0;
};

/// Throws std::invalid_argument (message prefixed with `who`) unless the
/// owner map covers every grain cell of `grid` with an owner in
/// [0, owners.nprocs) -- the precondition of every per-processor tally.
void validate_owners(const char* who, const WorkGrid& grid,
                     const OwnerMap& owners);

/// Per-processor work loads of an assignment.  Validates like
/// validate_owners.
[[nodiscard]] std::vector<double> processor_loads(const WorkGrid& grid,
                                                  const OwnerMap& owners);

/// Communication cost of one lattice face whose two sides share the levels
/// in `mask`: a level-l face is (grain r^l)^2 cells, exchanged r^l times
/// per coarse step.  Terms fold in ascending level order.  Every term is an
/// integer-valued double, so sums of face costs are exact in any order.
[[nodiscard]] double face_cost(std::uint32_t mask, int grain, int num_levels,
                               int ratio);

/// face_cost of every level mask of `grid` (entry `mask`, 2^levels
/// entries), the lookup ExecutionModel::map's sweep uses.  Empty for grids
/// deeper than 16 levels, where the table stops paying for itself and the
/// sweep folds face_cost per face.
[[nodiscard]] std::vector<double> face_cost_table(const WorkGrid& grid);

/// Total inter-processor communication volume (MIT-weighted ghost faces):
/// face_cost of every cut face, visited once from its lower cell in z,y,x
/// order, x then y then z per cell.  ExecutionModel::map tallies the same
/// faces in the same order, so MappedLoad::communication equals it bit for
/// bit.  Throws std::invalid_argument when the owner map does not cover
/// the grid.
[[nodiscard]] double communication_volume(const WorkGrid& grid,
                                          const OwnerMap& owners);

/// Storage fraction that changed owner between two assignments over the
/// same lattice.  Throws std::invalid_argument unless both owner maps
/// cover the grid.
[[nodiscard]] double migration_fraction(const WorkGrid& grid,
                                        const OwnerMap& previous,
                                        const OwnerMap& current);

/// Evaluate the full 5-component metric.  `previous` may be null.  Throws
/// std::invalid_argument when the owner map does not cover the grid or
/// targets.size() != nprocs.
[[nodiscard]] PacMetrics evaluate_pac(const WorkGrid& grid,
                                      const PartitionResult& result,
                                      std::span<const double> targets,
                                      const OwnerMap* previous = nullptr);

}  // namespace pragma::partition
