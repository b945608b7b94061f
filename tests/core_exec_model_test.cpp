#include "pragma/core/exec_model.hpp"

#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/synthetic.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::core {
namespace {

/// Equivalence oracle for ExecutionModel::map: the direct formulation, with
/// a per-face level loop, a per-level message loop and a std::set for the
/// WAN (processor pair, level) dedup.
MappedLoad reference_map(const partition::WorkGrid& grid,
                         const partition::OwnerMap& owners,
                         const std::vector<int>* proc_sites = nullptr) {
  const auto nprocs = static_cast<std::size_t>(owners.nprocs);

  MappedLoad mapped;
  mapped.work = partition::processor_loads(grid, owners);

  std::vector<double> face_cells(nprocs, 0.0);
  const amr::IntVec3 dims = grid.lattice_dims();
  const int g = grid.grain();
  std::set<std::tuple<int, int, int>> wan_exchanges;

  auto visit_face = [&](std::size_t a, std::size_t b) {
    const int pa = owners.owner[a];
    const int pb = owners.owner[b];
    if (pa == pb) return;
    const std::uint32_t shared =
        grid.levels_present(a) & grid.levels_present(b);
    if (shared == 0) return;
    const bool cross_site =
        proc_sites != nullptr &&
        (*proc_sites)[static_cast<std::size_t>(pa)] !=
            (*proc_sites)[static_cast<std::size_t>(pb)];
    double cost = 0.0;
    double r = 1.0;
    for (int l = 0; l < grid.num_levels(); ++l) {
      if (shared & (1u << l)) {
        const double edge = static_cast<double>(g) * r;
        cost += edge * edge * r;
        if (cross_site &&
            wan_exchanges.insert({std::min(pa, pb), std::max(pa, pb), l})
                .second)
          mapped.wan_messages += r;
      }
      r *= static_cast<double>(grid.ratio());
    }
    face_cells[static_cast<std::size_t>(pa)] += cost;
    face_cells[static_cast<std::size_t>(pb)] += cost;
    if (cross_site) mapped.wan_face_cells += cost;
  };

  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x) {
        const std::size_t c = grid.linear({x, y, z});
        if (x + 1 < dims.x) visit_face(c, grid.linear({x + 1, y, z}));
        if (y + 1 < dims.y) visit_face(c, grid.linear({x, y + 1, z}));
        if (z + 1 < dims.z) visit_face(c, grid.linear({x, y, z + 1}));
      }
  mapped.face_cells = std::move(face_cells);

  mapped.messages.assign(nprocs, 0.0);
  std::vector<double> substeps(static_cast<std::size_t>(grid.num_levels()));
  {
    double r = 1.0;
    for (int l = 0; l < grid.num_levels(); ++l) {
      substeps[static_cast<std::size_t>(l)] = r;
      r *= static_cast<double>(grid.ratio());
    }
  }
  int prev_owner = -1;
  std::uint32_t prev_levels = 0;
  for (std::uint32_t c : grid.order()) {
    const int owner = owners.owner[c];
    const std::uint32_t levels = grid.levels_present(c);
    for (int l = 0; l < grid.num_levels(); ++l) {
      const bool now = (levels >> l) & 1u;
      const bool before = owner == prev_owner && ((prev_levels >> l) & 1u);
      if (now && !before)
        mapped.messages[static_cast<std::size_t>(owner)] +=
            2.0 * substeps[static_cast<std::size_t>(l)];
    }
    prev_owner = owner;
    prev_levels = levels;
  }
  return mapped;
}

/// Equivalence oracle for map()'s migration tally: the two-pass form, a
/// separate lattice-order loop over both owner maps after the mapping.
/// Returns each processor's bytes sent plus bytes received.
std::vector<double> reference_migration_bytes(
    const partition::WorkGrid& grid, const partition::OwnerMap& previous,
    const partition::OwnerMap& current, double bytes_per_cell) {
  const auto nprocs = static_cast<std::size_t>(
      std::max(previous.nprocs, current.nprocs));
  std::vector<double> outgoing(nprocs, 0.0);
  std::vector<double> incoming(nprocs, 0.0);
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const int from = previous.owner[c];
    const int to = current.owner[c];
    if (from == to) continue;
    const double bytes = grid.storage(c) * bytes_per_cell;
    outgoing[static_cast<std::size_t>(from)] += bytes;
    incoming[static_cast<std::size_t>(to)] += bytes;
  }
  std::vector<double> total(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p)
    total[p] = outgoing[p] + incoming[p];
  return total;
}

/// The two-pass migration time: the worst processor's bytes over its
/// uplink, scaled by the redistribution overhead.
double reference_migration_time(const std::vector<double>& bytes,
                                const grid::Cluster& cluster,
                                const ExecModelConfig& config) {
  double worst = 0.0;
  for (std::size_t p = 0; p < bytes.size() && p < cluster.size(); ++p) {
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    if (rate <= 0.0) continue;
    worst = std::max(worst, bytes[p] / rate);
  }
  return worst * config.redistribution_overhead;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

amr::GridHierarchy test_hierarchy() {
  amr::SyntheticConfig config;
  config.base_dims = {32, 16, 16};
  config.box_count = 4;
  amr::SyntheticAppGenerator generator(config);
  return generator.build_hierarchy();
}

partition::OwnerMap split_by_curve(const partition::WorkGrid& grid,
                                   int nprocs) {
  const auto partitioner = partition::make_partitioner("ISP");
  return partitioner->partition(grid, partition::equal_targets(nprocs))
      .owners;
}

TEST(ExecutionModel, StepTimePositiveAndBoundedByParts) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  const ExecutionModel model;
  const StepTime step = model.time_of(model.map(grid, owners), cluster);
  EXPECT_GT(step.compute_s, 0.0);
  EXPECT_GT(step.comm_s, 0.0);
  EXPECT_GE(step.total_s, step.compute_s);
  EXPECT_LE(step.total_s, step.compute_s + step.comm_s + 1e-12);
  EXPECT_EQ(step.proc_busy_s.size(), 4u);
}

TEST(ExecutionModel, MoreProcessorsReduceComputeTime) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const grid::Cluster big = grid::ClusterBuilder::homogeneous(16);
  const ExecutionModel model;
  const StepTime few =
      model.time_of(model.map(grid, split_by_curve(grid, 2)), big);
  const StepTime many =
      model.time_of(model.map(grid, split_by_curve(grid, 16)), big);
  EXPECT_LT(many.compute_s, few.compute_s);
}

TEST(ExecutionModel, SlowNodeDominatesStepTime) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  const ExecutionModel model;
  const StepTime before = model.time_of(model.map(grid, owners), cluster);
  cluster.node(2).state().background_load = 0.9;  // 10x slower
  const StepTime after = model.time_of(model.map(grid, owners), cluster);
  EXPECT_GT(after.total_s, before.total_s * 3.0);
}

TEST(ExecutionModel, MappedWorkConserved) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 8);
  const ExecutionModel model;
  const MappedLoad mapped = model.map(grid, owners);
  double total = 0.0;
  for (double w : mapped.work) total += w;
  EXPECT_NEAR(total, grid.total_work(), 1e-6);
}

TEST(ExecutionModel, TooManyProcessorsThrow) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 8);
  const grid::Cluster small = grid::ClusterBuilder::homogeneous(4);
  const ExecutionModel model;
  EXPECT_THROW(model.time_of(model.map(grid, owners), small),
               std::invalid_argument);
}

TEST(ExecutionModel, MigrationTimeZeroForIdenticalAssignments) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  const ExecutionModel model;
  EXPECT_DOUBLE_EQ(
      model.migration_time(model.map(grid, owners, nullptr, &owners),
                           cluster),
      0.0);
}

TEST(ExecutionModel, MigrationTimeZeroWithoutPrevious) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  const ExecutionModel model;
  const MappedLoad mapped = model.map(grid, owners);
  EXPECT_TRUE(mapped.migration_bytes.empty());
  EXPECT_DOUBLE_EQ(model.migration_time(mapped, cluster), 0.0);
}

TEST(ExecutionModel, MigrationTimeGrowsWithChange) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap a = split_by_curve(grid, 4);
  partition::OwnerMap b = a;
  // Swap two processors entirely.
  for (int& owner : b.owner) owner = owner == 0 ? 1 : owner == 1 ? 0 : owner;
  partition::OwnerMap c = a;
  for (int& owner : c.owner) owner = (owner + 1) % 4;  // everything moves
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  const ExecutionModel model;
  const auto migration = [&](const partition::OwnerMap& current) {
    return model.migration_time(model.map(grid, current, nullptr, &a),
                                cluster);
  };
  const double none = migration(a);
  const double some = migration(b);
  const double all = migration(c);
  EXPECT_LT(none, some);
  EXPECT_LE(some, all);
}

TEST(ExecutionModel, RedistributionOverheadScalesMigration) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap a = split_by_curve(grid, 4);
  partition::OwnerMap b = a;
  for (int& owner : b.owner) owner = (owner + 1) % 4;
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  ExecModelConfig cheap;
  cheap.redistribution_overhead = 1.0;
  ExecModelConfig costly;
  costly.redistribution_overhead = 8.0;
  const ExecutionModel cheap_model(cheap);
  const ExecutionModel costly_model(costly);
  const double t1 = cheap_model.migration_time(
      cheap_model.map(grid, b, nullptr, &a), cluster);
  const double t8 = costly_model.migration_time(
      costly_model.map(grid, b, nullptr, &a), cluster);
  EXPECT_NEAR(t8, 8.0 * t1, 1e-9);
}

TEST(ExecutionModel, PartitionCostScales) {
  ExecModelConfig config;
  config.partition_time_scale = 100.0;
  const ExecutionModel model(config);
  EXPECT_DOUBLE_EQ(model.partition_cost(0.01), 1.0);
}

TEST(ProjectOwners, IdentityWhenSameDims) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  const partition::OwnerMap projected =
      project_owners(owners, grid.lattice_dims(), grid.lattice_dims());
  EXPECT_EQ(projected.owner, owners.owner);
}

TEST(ProjectOwners, RefinesCoarseAssignment) {
  partition::OwnerMap coarse;
  coarse.nprocs = 2;
  coarse.owner = {0, 1};  // 2x1x1 lattice
  const partition::OwnerMap fine =
      project_owners(coarse, {2, 1, 1}, {4, 2, 2});
  ASSERT_EQ(fine.owner.size(), 16u);
  // First half in x belongs to 0, second half to 1.
  for (int z = 0; z < 2; ++z)
    for (int y = 0; y < 2; ++y)
      for (int x = 0; x < 4; ++x) {
        const std::size_t c = x + 4 * (y + 2 * z);
        EXPECT_EQ(fine.owner[c], x < 2 ? 0 : 1);
      }
}

// The row-wise gather against the per-cell loop it replaced, for every
// refinement factor in {1, 2, 4} per axis (identity included).
TEST(ProjectOwners, MatchesPerCellReference) {
  const amr::IntVec3 source_dims{5, 3, 2};
  partition::OwnerMap source;
  source.nprocs = 7;
  util::Rng rng(23);
  for (int c = 0; c < source_dims.x * source_dims.y * source_dims.z; ++c)
    source.owner.push_back(static_cast<int>(rng.uniform_int(0, 6)));
  for (const int fx : {1, 2, 4})
    for (const int fy : {1, 2, 4})
      for (const int fz : {1, 2, 4}) {
        SCOPED_TRACE("factors " + std::to_string(fx) + " " +
                     std::to_string(fy) + " " + std::to_string(fz));
        const amr::IntVec3 target_dims{source_dims.x * fx,
                                       source_dims.y * fy,
                                       source_dims.z * fz};
        std::vector<int> expected(static_cast<std::size_t>(
            target_dims.x * target_dims.y * target_dims.z));
        for (int z = 0; z < target_dims.z; ++z)
          for (int y = 0; y < target_dims.y; ++y)
            for (int x = 0; x < target_dims.x; ++x)
              expected[static_cast<std::size_t>(
                  x + target_dims.x * (y + target_dims.y * z))] =
                  source.owner[static_cast<std::size_t>(
                      x / fx +
                      source_dims.x * (y / fy + source_dims.y * (z / fz)))];
        const partition::OwnerMap projected =
            project_owners(source, source_dims, target_dims);
        EXPECT_EQ(projected.owner, expected);
        EXPECT_EQ(projected.nprocs, source.nprocs);
      }
}

TEST(ProjectOwners, NonDividingDimsThrow) {
  partition::OwnerMap coarse;
  coarse.nprocs = 1;
  coarse.owner = {0, 0};
  EXPECT_THROW(project_owners(coarse, {2, 1, 1}, {3, 1, 1}),
               std::invalid_argument);
}

TEST(ProjectOwners, ZeroDimsThrow) {
  partition::OwnerMap coarse;
  coarse.nprocs = 1;
  coarse.owner = {0, 0};
  EXPECT_THROW(project_owners(coarse, {0, 1, 1}, {4, 2, 2}),
               std::invalid_argument);
  EXPECT_THROW(project_owners(coarse, {2, 1, 1}, {4, 0, 2}),
               std::invalid_argument);
}

TEST(ProjectOwners, SourceSmallerThanLatticeThrows) {
  partition::OwnerMap coarse;
  coarse.nprocs = 1;
  coarse.owner = {0};  // the source lattice has 2 cells
  EXPECT_THROW(project_owners(coarse, {2, 1, 1}, {4, 2, 2}),
               std::invalid_argument);
}


TEST(ExecutionModel, WanTrafficChargedOnFederations) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 8);
  const grid::Cluster federation =
      grid::ClusterBuilder::federated(2, 4, 1.0, 1000.0, 10.0);
  const ExecutionModel model;

  // Contiguous: chunks 0-3 at site 0, 4-7 at site 1.
  std::vector<int> contiguous{0, 0, 0, 0, 1, 1, 1, 1};
  // Interleaved across the WAN.
  std::vector<int> interleaved{0, 1, 0, 1, 0, 1, 0, 1};

  const MappedLoad a = model.map(grid, owners, &contiguous);
  const MappedLoad b = model.map(grid, owners, &interleaved);
  EXPECT_GT(b.wan_face_cells, a.wan_face_cells);
  EXPECT_GT(model.time_of(b, federation).total_s,
            model.time_of(a, federation).total_s);
}

TEST(ExecutionModel, NoWanChargeWithoutSites) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  const ExecutionModel model;
  const MappedLoad mapped = model.map(grid, owners);
  EXPECT_DOUBLE_EQ(mapped.wan_face_cells, 0.0);
  // A federated cluster with no cross-site traffic charges nothing extra.
  const grid::Cluster federation = grid::ClusterBuilder::federated(2, 2);
  std::vector<int> same_site{0, 0, 0, 0};
  const MappedLoad local = model.map(grid, owners, &same_site);
  EXPECT_DOUBLE_EQ(local.wan_face_cells, 0.0);
}

TEST(ExecutionModel, FragmentedOwnershipCostsMoreMessages) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const ExecutionModel model;

  partition::OwnerMap contiguous;
  contiguous.nprocs = 2;
  contiguous.owner.assign(grid.cell_count(), 0);
  for (std::size_t rank = grid.order().size() / 2;
       rank < grid.order().size(); ++rank)
    contiguous.owner[grid.order()[rank]] = 1;

  partition::OwnerMap striped;
  striped.nprocs = 2;
  striped.owner.assign(grid.cell_count(), 0);
  for (std::size_t rank = 0; rank < grid.order().size(); ++rank)
    striped.owner[grid.order()[rank]] = static_cast<int>(rank % 2);

  const MappedLoad a = model.map(grid, contiguous);
  const MappedLoad b = model.map(grid, striped);
  EXPECT_GT(b.messages[0], a.messages[0] * 2.0);
}

/// 17 levels, one more than face-cost tables are built for, so map() folds
/// per face.  Every level is present along the y = z = 0 row of level-0
/// cells: faces cut there share all 17 level bits.  The deep boxes are two
/// cells wide, which keeps every work and cost term exactly representable.
amr::GridHierarchy deep_hierarchy() {
  amr::GridHierarchy hierarchy({6, 4, 4}, 2, 17);
  for (int l = 1; l < 17; ++l) {
    const int r = 1 << l;
    std::vector<amr::Box> boxes;
    for (int x = 1; x < 6; ++x)
      boxes.emplace_back(amr::IntVec3{x * r - 1, 0, 0},
                         amr::IntVec3{x * r + 1, 1, 1});
    hierarchy.set_level_boxes(l, std::move(boxes));
  }
  return hierarchy;
}

// The table-driven map() against the oracle on RM3D snapshots across
// consecutive regrids at grains 1-3, and on a grid too deep to tabulate:
// contiguous and randomly perturbed owner maps, with and without a 3-site
// federation.  Its communication total must equal
// partition::communication_volume's fold bit for bit.
TEST(ExecutionModel, MapMatchesReferenceBitwise) {
  amr::Rm3dConfig app;
  app.coarse_steps = 100;
  const amr::AdaptationTrace trace = amr::Rm3dEmulator(app).run();
  ASSERT_GE(trace.size(), 26u);
  std::vector<std::pair<std::string, partition::WorkGrid>> grids;
  for (int grain = 1; grain <= 3; ++grain)
    for (std::size_t i = 20; i < 26; ++i)
      grids.emplace_back("grain " + std::to_string(grain) + " snapshot " +
                             std::to_string(i),
                         partition::WorkGrid(trace.at(i).hierarchy, grain));
  grids.emplace_back("17 levels", partition::WorkGrid(deep_hierarchy(), 1));
  ASSERT_EQ(grids.back().second.num_levels(), 17);

  const ExecutionModel model;
  const auto partitioner = partition::make_partitioner("SFC");
  util::Rng rng(15);
  for (const auto& [name, grid] : grids) {
    ASSERT_GT(grid.num_levels(), 1);
    for (const int nprocs : {5, 16}) {
      const partition::OwnerMap blocky =
          partitioner->partition(grid, partition::equal_targets(nprocs))
              .owners;
      partition::OwnerMap perturbed = blocky;
      for (int& owner : perturbed.owner)
        if (rng.uniform() < 0.05)
          owner = static_cast<int>(rng.uniform_int(0, nprocs - 1));
      std::vector<int> sites(static_cast<std::size_t>(nprocs));
      for (int p = 0; p < nprocs; ++p)
        sites[static_cast<std::size_t>(p)] = p % 3;
      for (const partition::OwnerMap* owners :
           {&blocky, static_cast<const partition::OwnerMap*>(&perturbed)}) {
        for (const std::vector<int>* proc_sites :
             {static_cast<const std::vector<int>*>(nullptr),
              static_cast<const std::vector<int>*>(&sites)}) {
          SCOPED_TRACE(name + " nprocs " + std::to_string(nprocs) +
                       (owners == &blocky ? " blocky" : " perturbed") +
                       (proc_sites != nullptr ? " 3 sites" : ""));
          const MappedLoad fast = model.map(grid, *owners, proc_sites);
          const MappedLoad slow = reference_map(grid, *owners, proc_sites);
          EXPECT_TRUE(bitwise_equal(fast.work, slow.work));
          EXPECT_TRUE(bitwise_equal(fast.face_cells, slow.face_cells));
          EXPECT_TRUE(bitwise_equal(fast.messages, slow.messages));
          EXPECT_TRUE(
              bitwise_equal(fast.wan_face_cells, slow.wan_face_cells));
          EXPECT_TRUE(bitwise_equal(fast.wan_messages, slow.wan_messages));
          EXPECT_TRUE(bitwise_equal(
              fast.communication,
              partition::communication_volume(grid, *owners)));
          if (proc_sites != nullptr) {
            EXPECT_GT(fast.wan_messages, 0.0);
          }
        }
      }
    }
  }
}

// map() with a previous assignment against the two-pass form, over
// MapMatchesReferenceBitwise's matrix: every other field must equal the
// mapping without `previous`, and the migration tally the separate loop's
// bit for bit.  The previous map has another processor count, and the
// non-integer bytes_per_cell makes the per-processor accumulation order
// visible in the result.
TEST(ExecutionModel, MapWithPreviousMatchesTwoPassBitwise) {
  amr::Rm3dConfig app;
  app.coarse_steps = 100;
  const amr::AdaptationTrace trace = amr::Rm3dEmulator(app).run();
  ASSERT_GE(trace.size(), 26u);
  std::vector<std::pair<std::string, partition::WorkGrid>> grids;
  for (int grain = 1; grain <= 3; ++grain)
    for (std::size_t i = 20; i < 26; ++i)
      grids.emplace_back("grain " + std::to_string(grain) + " snapshot " +
                             std::to_string(i),
                         partition::WorkGrid(trace.at(i).hierarchy, grain));
  grids.emplace_back("17 levels", partition::WorkGrid(deep_hierarchy(), 1));
  ASSERT_EQ(grids.back().second.num_levels(), 17);

  ExecModelConfig config;
  config.bytes_per_cell = 80.3;
  const ExecutionModel model(config);
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(19);
  const auto partitioner = partition::make_partitioner("SFC");
  util::Rng rng(16);
  const auto perturb = [&](partition::OwnerMap owners) {
    for (int& owner : owners.owner)
      if (rng.uniform() < 0.05)
        owner = static_cast<int>(rng.uniform_int(0, owners.nprocs - 1));
    return owners;
  };
  for (const auto& [name, grid] : grids) {
    for (const int nprocs : {5, 16}) {
      const partition::OwnerMap blocky =
          partitioner->partition(grid, partition::equal_targets(nprocs))
              .owners;
      const partition::OwnerMap perturbed = perturb(blocky);
      const partition::OwnerMap previous = perturb(
          partitioner
              ->partition(grid, partition::equal_targets(
                                    static_cast<std::size_t>(nprocs) + 3))
              .owners);
      std::vector<int> sites(static_cast<std::size_t>(nprocs));
      for (int p = 0; p < nprocs; ++p)
        sites[static_cast<std::size_t>(p)] = p % 3;
      for (const partition::OwnerMap* owners : {&blocky, &perturbed}) {
        for (const std::vector<int>* proc_sites :
             {static_cast<const std::vector<int>*>(nullptr),
              static_cast<const std::vector<int>*>(&sites)}) {
          SCOPED_TRACE(name + " nprocs " + std::to_string(nprocs) +
                       (owners == &blocky ? " blocky" : " perturbed") +
                       (proc_sites != nullptr ? " 3 sites" : ""));
          const MappedLoad one =
              model.map(grid, *owners, proc_sites, &previous);
          const MappedLoad plain = model.map(grid, *owners, proc_sites);
          EXPECT_TRUE(bitwise_equal(one.work, plain.work));
          EXPECT_TRUE(bitwise_equal(one.face_cells, plain.face_cells));
          EXPECT_TRUE(bitwise_equal(one.messages, plain.messages));
          EXPECT_TRUE(bitwise_equal(one.wan_face_cells, plain.wan_face_cells));
          EXPECT_TRUE(bitwise_equal(one.wan_messages, plain.wan_messages));
          EXPECT_TRUE(bitwise_equal(one.communication, plain.communication));
          EXPECT_TRUE(bitwise_equal(
              one.work, reference_map(grid, *owners, proc_sites).work));

          const std::vector<double> two_pass = reference_migration_bytes(
              grid, previous, *owners, config.bytes_per_cell);
          ASSERT_EQ(two_pass.size(), static_cast<std::size_t>(nprocs) + 3);
          EXPECT_TRUE(bitwise_equal(one.migration_bytes, two_pass));
          const double time = model.migration_time(one, cluster);
          EXPECT_GT(time, 0.0);
          EXPECT_TRUE(bitwise_equal(
              time, reference_migration_time(two_pass, cluster, config)));
          // And in the other direction: fewer processors than before.
          const MappedLoad back =
              model.map(grid, previous, nullptr, owners);
          EXPECT_TRUE(bitwise_equal(
              back.migration_bytes,
              reference_migration_bytes(grid, *owners, previous,
                                        config.bytes_per_cell)));
        }
      }
    }
  }
}

TEST(ExecutionModel, MapRejectsBadInputs) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const ExecutionModel model;
  partition::OwnerMap owners = split_by_curve(grid, 4);
  const std::vector<int> short_sites{0, 1, 0};
  EXPECT_THROW(model.map(grid, owners, &short_sites), std::invalid_argument);
  owners.owner.back() = 4;
  EXPECT_THROW(model.map(grid, owners), std::invalid_argument);
  owners.owner.pop_back();
  EXPECT_THROW(model.map(grid, owners), std::invalid_argument);
}

TEST(ExecutionModel, MigrationTimeRejectsBadInputs) {
  const partition::WorkGrid grid(test_hierarchy(), 2);
  const ExecutionModel model;
  const partition::OwnerMap owners = split_by_curve(grid, 4);
  partition::OwnerMap out_of_range = owners;
  out_of_range.owner.front() = 4;
  EXPECT_THROW(model.map(grid, out_of_range, nullptr, &owners),
               std::invalid_argument);
  EXPECT_THROW(model.map(grid, owners, nullptr, &out_of_range),
               std::invalid_argument);
  partition::OwnerMap shorter = owners;
  shorter.owner.pop_back();
  EXPECT_THROW(model.map(grid, shorter, nullptr, &shorter),
               std::invalid_argument);
  EXPECT_THROW(model.map(grid, owners, nullptr, &shorter),
               std::invalid_argument);
}

}  // namespace
}  // namespace pragma::core
