#include "pragma/amr/hierarchy.hpp"

#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

namespace pragma::amr {
namespace {

GridHierarchy sample_hierarchy() {
  GridHierarchy h({32, 16, 16}, 2, 3);
  h.set_level_boxes(1, {Box({8, 8, 8}, {24, 16, 16})});   // level-1 space
  h.set_level_boxes(2, {Box({24, 20, 20}, {40, 28, 28})});  // level-2 space
  return h;
}

TEST(GridHierarchy, ConstructionValidation) {
  EXPECT_THROW(GridHierarchy({8, 8, 8}, 1, 2), std::invalid_argument);
  EXPECT_THROW(GridHierarchy({8, 8, 8}, 2, 0), std::invalid_argument);
}

TEST(GridHierarchy, BaseLevelCoversDomain) {
  const GridHierarchy h({32, 16, 16}, 2, 3);
  EXPECT_EQ(h.num_levels(), 1);
  EXPECT_EQ(h.level(0).cell_count(), 32 * 16 * 16);
  EXPECT_EQ(h.level(0).boxes[0], Box::from_dims({32, 16, 16}));
}

TEST(GridHierarchy, CumulativeRatio) {
  const GridHierarchy h({8, 8, 8}, 2, 4);
  EXPECT_EQ(h.cumulative_ratio(0), 1);
  EXPECT_EQ(h.cumulative_ratio(1), 2);
  EXPECT_EQ(h.cumulative_ratio(3), 8);
}

TEST(GridHierarchy, LevelDomainScales) {
  const GridHierarchy h({8, 4, 4}, 2, 3);
  EXPECT_EQ(h.level_domain(0), Box::from_dims({8, 4, 4}));
  EXPECT_EQ(h.level_domain(2), Box::from_dims({32, 16, 16}));
}

TEST(GridHierarchy, InLevelDomain) {
  const GridHierarchy h = sample_hierarchy();
  EXPECT_TRUE(h.in_level_domain(1, h.level_domain(1)));
  EXPECT_TRUE(h.in_level_domain(2, Box({120, 0, 60}, {128, 64, 64})));
  EXPECT_FALSE(h.in_level_domain(1, Box({0, 0, 0}, {65, 32, 32})));
  EXPECT_FALSE(h.in_level_domain(2, Box({-1, 0, 0}, {4, 4, 4})));
  // An empty box deposits nothing, wherever it lies.
  EXPECT_TRUE(h.in_level_domain(1, Box({-9, 0, 0}, {-9, 4, 4})));
  // Deep levels of a large domain pass every int coordinate; the check
  // must not overflow computing their extent.
  const GridHierarchy deep({1 << 14, 1 << 14, 1 << 14}, 16, 24);
  const int cap = 1 << 30;
  EXPECT_TRUE(deep.in_level_domain(23, Box({0, 0, 0}, {cap, cap, cap})));
  EXPECT_FALSE(deep.in_level_domain(23, Box({-1, 0, 0}, {cap, cap, cap})));
  EXPECT_FALSE(deep.in_level_domain(0, Box({0, 0, 0}, {cap, 1, 1})));
}

TEST(GridHierarchy, SetLevelBoxesValidation) {
  GridHierarchy h({8, 8, 8}, 2, 2);
  EXPECT_THROW(h.set_level_boxes(0, {}), std::invalid_argument);
  EXPECT_THROW(h.set_level_boxes(2, {}), std::invalid_argument);
  h.set_level_boxes(1, {Box({0, 0, 0}, {4, 4, 4})});
  EXPECT_EQ(h.num_levels(), 2);
}

TEST(GridHierarchy, EmptyTrailingLevelsDropped) {
  GridHierarchy h({8, 8, 8}, 2, 3);
  h.set_level_boxes(2, {Box({0, 0, 0}, {4, 4, 4})});
  EXPECT_EQ(h.num_levels(), 3);
  h.set_level_boxes(2, {});
  // Level 1 was never populated, so both refined levels vanish.
  EXPECT_EQ(h.num_levels(), 1);
}

TEST(GridHierarchy, TotalCellsSumsLevels) {
  const GridHierarchy h = sample_hierarchy();
  const std::int64_t expected = 32 * 16 * 16 + 16 * 8 * 8 + 16 * 8 * 8;
  EXPECT_EQ(h.total_cells(), expected);
}

TEST(GridHierarchy, TotalWorkAppliesSubstepWeights) {
  const GridHierarchy h = sample_hierarchy();
  const double expected = 32 * 16 * 16 * 1.0 + 16 * 8 * 8 * 2.0 +
                          16 * 8 * 8 * 4.0;
  EXPECT_DOUBLE_EQ(h.total_work(), expected);
}

TEST(GridHierarchy, BoxWork) {
  const GridHierarchy h({8, 8, 8}, 2, 3);
  const Box box({0, 0, 0}, {4, 4, 4});
  EXPECT_DOUBLE_EQ(h.box_work(box, 0), 64.0);
  EXPECT_DOUBLE_EQ(h.box_work(box, 2), 256.0);
}

TEST(GridHierarchy, UniformFineWork) {
  const GridHierarchy h({8, 8, 8}, 2, 2);
  // Fine grid: (8*2)^3 cells, each advancing 2 substeps.
  EXPECT_DOUBLE_EQ(h.uniform_fine_work(), 16.0 * 16 * 16 * 2);
}

TEST(GridHierarchy, AmrEfficiencyHighForSparseRefinement) {
  const GridHierarchy h = sample_hierarchy();
  EXPECT_GT(h.amr_efficiency(), 0.97);
  EXPECT_LT(h.amr_efficiency(), 1.0);
}

TEST(GridHierarchy, AmrEfficiencyDropsWithFullRefinement) {
  GridHierarchy full({8, 8, 8}, 2, 2);
  full.set_level_boxes(1, {Box::from_dims({16, 16, 16})});
  // Fully refined: adaptive work = uniform fine work + the coarse level.
  EXPECT_LT(full.amr_efficiency(), 0.0);
}

TEST(GridHierarchy, AllPatchesEnumerated) {
  const GridHierarchy h = sample_hierarchy();
  const auto patches = h.all_patches();
  ASSERT_EQ(patches.size(), 3u);
  EXPECT_EQ(patches[0].level, 0);
  EXPECT_EQ(patches[1].level, 1);
  EXPECT_EQ(patches[2].level, 2);
}

TEST(GridHierarchy, SummaryMentionsEveryLevel) {
  const GridHierarchy h = sample_hierarchy();
  const std::string summary = h.summary();
  EXPECT_NE(summary.find("L0"), std::string::npos);
  EXPECT_NE(summary.find("L1"), std::string::npos);
  EXPECT_NE(summary.find("L2"), std::string::npos);
}

}  // namespace
}  // namespace pragma::amr
