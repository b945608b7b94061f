#include "pragma/partition/metrics.hpp"

#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include "pragma/amr/synthetic.hpp"

namespace pragma::partition {
namespace {

amr::GridHierarchy flat_hierarchy() {
  // Uniform load: only the base level on a 16^3 domain.
  return amr::GridHierarchy({16, 16, 16}, 2, 2);
}

OwnerMap half_split(const WorkGrid& grid) {
  OwnerMap owners;
  owners.nprocs = 2;
  owners.owner.assign(grid.cell_count(), 0);
  const amr::IntVec3 dims = grid.lattice_dims();
  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x)
        owners.owner[grid.linear({x, y, z})] = x < dims.x / 2 ? 0 : 1;
  return owners;
}

TEST(ProcessorLoads, HalfSplitIsEqual) {
  const WorkGrid grid(flat_hierarchy(), 4);
  const OwnerMap owners = half_split(grid);
  const auto loads = processor_loads(grid, owners);
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0], loads[1]);
  EXPECT_NEAR(loads[0] + loads[1], grid.total_work(), 1e-9);
}

TEST(CommunicationVolume, PlanarCutHasKnownArea) {
  const WorkGrid grid(flat_hierarchy(), 4);  // 4x4x4 lattice
  const OwnerMap owners = half_split(grid);
  // The cut is one 4x4 grain-cell plane; each face is (grain)^2 = 16 base
  // cells, and only level 0 is present: 16 faces x 16 cells.
  EXPECT_DOUBLE_EQ(communication_volume(grid, owners), 256.0);
}

TEST(CommunicationVolume, SingleOwnerIsZero) {
  const WorkGrid grid(flat_hierarchy(), 4);
  OwnerMap owners;
  owners.nprocs = 1;
  owners.owner.assign(grid.cell_count(), 0);
  EXPECT_DOUBLE_EQ(communication_volume(grid, owners), 0.0);
}

TEST(CommunicationVolume, CheckerboardMaximizesCut) {
  const WorkGrid grid(flat_hierarchy(), 4);
  OwnerMap planar = half_split(grid);
  OwnerMap checker;
  checker.nprocs = 2;
  checker.owner.assign(grid.cell_count(), 0);
  const amr::IntVec3 dims = grid.lattice_dims();
  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x)
        checker.owner[grid.linear({x, y, z})] = (x + y + z) % 2;
  EXPECT_GT(communication_volume(grid, checker),
            communication_volume(grid, planar) * 5.0);
}

TEST(CommunicationVolume, RefinedFacesCostMore) {
  amr::SyntheticConfig config;
  config.base_dims = {32, 16, 16};
  config.box_count = 1;
  config.box_edge = 16;
  amr::SyntheticAppGenerator generator(config);
  const amr::GridHierarchy refined = generator.build_hierarchy();
  const WorkGrid grid(refined, 4);
  const OwnerMap owners = half_split(grid);
  // The same cut on an unrefined hierarchy is strictly cheaper.
  const WorkGrid flat_grid(amr::GridHierarchy({32, 16, 16}, 2, 2), 4);
  const OwnerMap flat_owners = half_split(flat_grid);
  EXPECT_GE(communication_volume(grid, owners),
            communication_volume(flat_grid, flat_owners));
}

TEST(MigrationFraction, IdenticalAssignmentsZero) {
  const WorkGrid grid(flat_hierarchy(), 4);
  const OwnerMap owners = half_split(grid);
  EXPECT_DOUBLE_EQ(migration_fraction(grid, owners, owners), 0.0);
}

TEST(MigrationFraction, CompleteSwapIsOne) {
  const WorkGrid grid(flat_hierarchy(), 4);
  const OwnerMap a = half_split(grid);
  OwnerMap b = a;
  for (int& owner : b.owner) owner = 1 - owner;
  EXPECT_DOUBLE_EQ(migration_fraction(grid, a, b), 1.0);
}

TEST(OwnerValidation, SizeMismatchThrows) {
  const WorkGrid grid(flat_hierarchy(), 4);
  OwnerMap owners;
  owners.nprocs = 2;
  owners.owner.assign(grid.cell_count() - 1, 0);  // one cell short
  EXPECT_THROW(processor_loads(grid, owners), std::invalid_argument);
  EXPECT_THROW(communication_volume(grid, owners), std::invalid_argument);
  // Two maps that match each other but not the grid.
  EXPECT_THROW(migration_fraction(grid, owners, owners),
               std::invalid_argument);
  OwnerMap one_cell;
  one_cell.nprocs = 2;
  one_cell.owner.assign(1, 0);
  EXPECT_THROW(migration_fraction(grid, one_cell, one_cell),
               std::invalid_argument);
  PartitionResult result;
  result.owners = owners;
  EXPECT_THROW(evaluate_pac(grid, result, equal_targets(2)),
               std::invalid_argument);
}

TEST(OwnerValidation, OwnerOutOfRangeThrows) {
  const WorkGrid grid(flat_hierarchy(), 4);
  OwnerMap owners = half_split(grid);
  owners.owner.front() = owners.nprocs;  // one past the last processor
  EXPECT_THROW(processor_loads(grid, owners), std::invalid_argument);
  owners.owner.front() = -1;
  EXPECT_THROW(processor_loads(grid, owners), std::invalid_argument);
  PartitionResult result;
  result.owners = owners;
  EXPECT_THROW(evaluate_pac(grid, result, equal_targets(2)),
               std::invalid_argument);
}

TEST(OwnerValidation, TargetsMismatchThrows) {
  const WorkGrid grid(flat_hierarchy(), 4);
  PartitionResult result;
  result.owners = half_split(grid);  // nprocs == 2
  EXPECT_THROW(evaluate_pac(grid, result, equal_targets(3)),
               std::invalid_argument);
}

TEST(MigrationFraction, SizeMismatchThrows) {
  const WorkGrid grid(flat_hierarchy(), 4);
  const OwnerMap a = half_split(grid);
  OwnerMap b;
  b.nprocs = 2;
  b.owner.assign(3, 0);
  EXPECT_THROW(migration_fraction(grid, a, b), std::invalid_argument);
}

TEST(EvaluatePac, BalancedPlanarCut) {
  const WorkGrid grid(flat_hierarchy(), 4);
  PartitionResult result;
  result.owners = half_split(grid);
  result.partition_seconds = 0.001;
  const PacMetrics pac = evaluate_pac(grid, result, equal_targets(2));
  EXPECT_NEAR(pac.load_imbalance, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(pac.partition_time, 0.001);
  EXPECT_DOUBLE_EQ(pac.data_migration, 0.0);  // no previous assignment
  EXPECT_DOUBLE_EQ(pac.overhead, 0.0);        // one fragment per processor
}

TEST(EvaluatePac, ImbalanceAgainstWeightedTargets) {
  const WorkGrid grid(flat_hierarchy(), 4);
  PartitionResult result;
  result.owners = half_split(grid);  // 50/50 actual
  // Targets want 75/25: processor 1 holds 0.5 / 0.25 = 2x its share.
  const std::vector<double> targets{0.75, 0.25};
  const PacMetrics pac = evaluate_pac(grid, result, targets);
  EXPECT_NEAR(pac.load_imbalance, 1.0, 1e-9);
}

TEST(EvaluatePac, MigrationAgainstPrevious) {
  const WorkGrid grid(flat_hierarchy(), 4);
  PartitionResult result;
  result.owners = half_split(grid);
  OwnerMap previous = result.owners;
  for (int& owner : previous.owner) owner = 1 - owner;
  const PacMetrics pac =
      evaluate_pac(grid, result, equal_targets(2), &previous);
  EXPECT_DOUBLE_EQ(pac.data_migration, 1.0);
}

TEST(EvaluatePac, FragmentedOwnershipRaisesOverhead) {
  const WorkGrid grid(flat_hierarchy(), 4);
  PartitionResult contiguous;
  contiguous.owners.nprocs = 2;
  contiguous.owners.owner.assign(grid.cell_count(), 0);
  // Contiguous along the curve: first half 0, second half 1.
  for (std::size_t rank = grid.order().size() / 2;
       rank < grid.order().size(); ++rank)
    contiguous.owners.owner[grid.order()[rank]] = 1;

  PartitionResult striped;
  striped.owners.nprocs = 2;
  striped.owners.owner.assign(grid.cell_count(), 0);
  for (std::size_t rank = 0; rank < grid.order().size(); ++rank)
    striped.owners.owner[grid.order()[rank]] = static_cast<int>(rank % 2);

  const auto targets = equal_targets(2);
  EXPECT_DOUBLE_EQ(evaluate_pac(grid, contiguous, targets).overhead, 0.0);
  EXPECT_GT(evaluate_pac(grid, striped, targets).overhead, 10.0);
}

}  // namespace
}  // namespace pragma::partition
