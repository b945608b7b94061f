#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include "pragma/amr/synthetic.hpp"

namespace pragma::amr {
namespace {

AdaptationTrace make_trace(int box_count, double move_fraction,
                           int box_edge = 8, int snapshots = 10,
                           std::uint64_t seed = 1) {
  SyntheticConfig config;
  config.box_count = box_count;
  config.move_fraction = move_fraction;
  config.box_edge = box_edge;
  config.seed = seed;
  SyntheticAppGenerator generator(config);
  return generator.generate(snapshots);
}

TEST(AdaptationTrace, IndexForStepFindsLatest) {
  AdaptationTrace trace = make_trace(4, 0.0);
  // Snapshots at steps 0, 4, 8, ...
  EXPECT_EQ(trace.index_for_step(0), 0u);
  EXPECT_EQ(trace.index_for_step(3), 0u);
  EXPECT_EQ(trace.index_for_step(4), 1u);
  EXPECT_EQ(trace.index_for_step(1000), trace.size() - 1);
}

TEST(AdaptationTrace, StepsCoveredBySnapshot) {
  const GridHierarchy h({16, 8, 8}, 2, 3);
  AdaptationTrace trace;
  trace.add(Snapshot{0, h});
  // A lone snapshot holds for one step.
  EXPECT_EQ(trace.steps_covered(0), 1);
  trace.add(Snapshot{4, h});
  trace.add(Snapshot{10, h});
  // Up to the next snapshot's step; the last one repeats the previous gap.
  EXPECT_EQ(trace.steps_covered(0), 4);
  EXPECT_EQ(trace.steps_covered(1), 6);
  EXPECT_EQ(trace.steps_covered(2), 6);
}

TEST(AdaptationTrace, ChurnZeroForStaticRefinement) {
  AdaptationTrace trace = make_trace(6, 0.0);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_DOUBLE_EQ(trace.churn(i), 0.0);
}

TEST(AdaptationTrace, ChurnGrowsWithMoveFraction) {
  AdaptationTrace low = make_trace(8, 0.1);
  AdaptationTrace high = make_trace(8, 0.9);
  double low_total = 0.0;
  double high_total = 0.0;
  for (std::size_t i = 1; i < low.size(); ++i) {
    low_total += low.churn(i);
    high_total += high.churn(i);
  }
  EXPECT_GT(high_total, low_total * 2.0);
}

TEST(AdaptationTrace, ChurnOfFirstSnapshotIsZero) {
  AdaptationTrace trace = make_trace(4, 0.5);
  EXPECT_DOUBLE_EQ(trace.churn(0), 0.0);
}

TEST(AdaptationTrace, ScatterGrowsWithBoxCount) {
  AdaptationTrace one = make_trace(1, 0.0);
  AdaptationTrace many = make_trace(24, 0.0, 4);
  EXPECT_LT(one.scatter(0), 0.3);
  EXPECT_GT(many.scatter(0), 0.6);
}

TEST(AdaptationTrace, ScatterZeroWithoutRefinement) {
  AdaptationTrace trace;
  trace.add(Snapshot{0, GridHierarchy({16, 16, 16}, 2, 3)});
  EXPECT_DOUBLE_EQ(trace.scatter(0), 0.0);
}

TEST(AdaptationTrace, CommCompPositiveWithRefinement) {
  AdaptationTrace trace = make_trace(8, 0.0);
  EXPECT_GT(trace.comm_comp_ratio(0), 0.0);
}

TEST(AdaptationTrace, SmallBoxesRaiseSurfacePerVolume) {
  // Same refined volume in many small boxes vs fewer large ones: the
  // small-box hierarchy has strictly more refined surface.
  AdaptationTrace small = make_trace(32, 0.0, 4);   // 32 * 4^3
  AdaptationTrace large = make_trace(4, 0.0, 8);    // 4 * 8^3 (same volume)
  const GridHierarchy& hs = small.at(0).hierarchy;
  const GridHierarchy& hl = large.at(0).hierarchy;
  ASSERT_EQ(hs.level(1).cell_count(), hl.level(1).cell_count());
  std::int64_t surf_small = 0;
  for (const Box& b : hs.level(1).boxes) surf_small += b.surface_area();
  std::int64_t surf_large = 0;
  for (const Box& b : hl.level(1).boxes) surf_large += b.surface_area();
  EXPECT_GT(surf_small, surf_large);
}

TEST(SyntheticGenerator, BoxesAreDisjointAndInDomain) {
  SyntheticConfig config;
  config.box_count = 16;
  config.move_fraction = 0.5;
  SyntheticAppGenerator generator(config);
  const AdaptationTrace trace = generator.generate(6);
  for (std::size_t s = 0; s < trace.size(); ++s) {
    const GridHierarchy& h = trace.at(s).hierarchy;
    for (int level = 1; level < h.num_levels(); ++level) {
      const Box domain = h.level_domain(level);
      const auto& boxes = h.level(level).boxes;
      for (std::size_t i = 0; i < boxes.size(); ++i) {
        EXPECT_TRUE(domain.contains(boxes[i]));
        for (std::size_t j = i + 1; j < boxes.size(); ++j)
          EXPECT_FALSE(boxes[i].intersects(boxes[j]));
      }
    }
  }
}

TEST(SyntheticGenerator, Level2NestsInsideLevel1) {
  SyntheticConfig config;
  config.box_count = 6;
  SyntheticAppGenerator generator(config);
  const GridHierarchy h = generator.build_hierarchy();
  ASSERT_EQ(h.num_levels(), 3);
  for (const Box& fine : h.level(2).boxes) {
    const Box coarse = fine.coarsen(2);
    std::int64_t covered = 0;
    for (const Box& parent : h.level(1).boxes)
      covered += coarse.intersection(parent).volume();
    EXPECT_EQ(covered, coarse.volume());
  }
}

TEST(SyntheticGenerator, RespectsBoxCount) {
  SyntheticConfig config;
  config.box_count = 11;
  SyntheticAppGenerator generator(config);
  EXPECT_EQ(generator.build_hierarchy().level(1).box_count(), 11u);
}

TEST(SyntheticGenerator, InvalidConfigThrows) {
  SyntheticConfig too_many;
  too_many.box_count = 1000000;
  EXPECT_THROW(SyntheticAppGenerator{too_many}, std::invalid_argument);
  SyntheticConfig bad_edge;
  bad_edge.box_edge = 7;  // does not divide the level-1 domain
  EXPECT_THROW(SyntheticAppGenerator{bad_edge}, std::invalid_argument);
}

TEST(SyntheticGenerator, DeterministicForSeed) {
  SyntheticConfig config;
  config.move_fraction = 0.7;
  config.seed = 42;
  AdaptationTrace a = SyntheticAppGenerator(config).generate(5);
  AdaptationTrace b = SyntheticAppGenerator(config).generate(5);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(symmetric_difference_volume(a.at(i).hierarchy.level(1).boxes,
                                          b.at(i).hierarchy.level(1).boxes),
              0);
}

TEST(SyntheticGenerator, NoLevel2WhenDisabled) {
  SyntheticConfig config;
  config.with_level2 = false;
  SyntheticAppGenerator generator(config);
  EXPECT_EQ(generator.build_hierarchy().num_levels(), 2);
}

}  // namespace
}  // namespace pragma::amr
