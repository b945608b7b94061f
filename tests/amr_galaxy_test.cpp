#include "pragma/amr/galaxy.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pragma/amr/trace_io.hpp"
#include "pragma/octant/octant.hpp"
#include "pragma/util/crc32.hpp"

namespace pragma::amr {
namespace {

GalaxyConfig small_config(int steps = 80) {
  GalaxyConfig config;
  config.base_dims = {32, 32, 32};
  config.clumps = 24;
  config.coarse_steps = steps;
  // Stronger gravity so mergers happen within short test runs.
  config.gravity = 2.0e-4;
  return config;
}

TEST(GalaxyEmulator, ValidatesThresholds) {
  GalaxyConfig config;
  config.thresholds = {1.0};
  EXPECT_THROW(GalaxyEmulator{config}, std::invalid_argument);
}

TEST(GalaxyEmulator, StartsWithConfiguredPopulation) {
  const GalaxyEmulator emulator(small_config());
  EXPECT_EQ(emulator.clumps().size(), 24u);
  EXPECT_GE(emulator.hierarchy().num_levels(), 2);
}

TEST(GalaxyEmulator, MergingReducesPopulation) {
  GalaxyEmulator emulator(small_config(200));
  const std::size_t initial = emulator.clumps().size();
  while (emulator.step() < 200) emulator.advance();
  EXPECT_LT(emulator.clumps().size(), initial);
  EXPECT_GE(emulator.clumps().size(), 1u);
}

TEST(GalaxyEmulator, MassConservedThroughMergers) {
  GalaxyEmulator emulator(small_config(200));
  const double initial_mass = emulator.total_mass();
  while (emulator.step() < 200) emulator.advance();
  EXPECT_NEAR(emulator.total_mass(), initial_mass, 1e-9 * initial_mass);
}

TEST(GalaxyEmulator, ClumpsStayInDomain) {
  GalaxyEmulator emulator(small_config(120));
  while (emulator.step() < 120) emulator.advance();
  for (const Clump& clump : emulator.clumps()) {
    EXPECT_GE(clump.x, 0.0);
    EXPECT_LE(clump.x, 1.0);
    EXPECT_GE(clump.y, 0.0);
    EXPECT_LE(clump.y, 1.0);
    EXPECT_GE(clump.z, 0.0);
    EXPECT_LE(clump.z, 1.0);
  }
}

TEST(GalaxyEmulator, IndicatorPeaksAtClumps) {
  const GalaxyEmulator emulator(small_config());
  const Clump& clump = emulator.clumps().front();
  EXPECT_GT(emulator.indicator(clump.x, clump.y, clump.z), 1.0);
}

TEST(GalaxyEmulator, DeterministicForSeed) {
  GalaxyEmulator a(small_config(60));
  GalaxyEmulator b(small_config(60));
  const AdaptationTrace ta = a.run();
  const AdaptationTrace tb = b.run();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_EQ(ta.at(i).hierarchy.total_cells(),
              tb.at(i).hierarchy.total_cells());
  EXPECT_EQ(a.clumps().size(), b.clumps().size());
}

TEST(GalaxyEmulator, TracePerRegridSnapshot) {
  GalaxyEmulator emulator(small_config(40));
  const AdaptationTrace trace = emulator.run();
  EXPECT_EQ(trace.size(), 11u);  // 0, 4, ..., 40
}

TEST(GalaxyEmulator, LevelsNestAndStayDisjoint) {
  GalaxyEmulator emulator(small_config(80));
  const AdaptationTrace trace = emulator.run();
  for (std::size_t s = 0; s < trace.size(); s += 4) {
    const GridHierarchy& h = trace.at(s).hierarchy;
    for (int level = 1; level < h.num_levels(); ++level) {
      const auto& boxes = h.level(level).boxes;
      const Box domain = h.level_domain(level);
      for (std::size_t i = 0; i < boxes.size(); ++i) {
        EXPECT_TRUE(domain.contains(boxes[i]));
        for (std::size_t j = i + 1; j < boxes.size(); ++j)
          EXPECT_FALSE(boxes[i].intersects(boxes[j]));
      }
      if (level >= 2) {
        for (const Box& fine : boxes) {
          const Box coarse = fine.coarsen(h.ratio());
          std::int64_t covered = 0;
          for (const Box& parent : h.level(level - 1).boxes)
            covered += coarse.intersection(parent).volume();
          EXPECT_EQ(covered, coarse.volume());
        }
      }
    }
  }
}

TEST(GalaxyEmulator, ScatterDecreasesAsSystemsMerge) {
  GalaxyConfig config = small_config(400);
  config.clumps = 32;
  GalaxyEmulator emulator(config);
  const AdaptationTrace trace = emulator.run();
  // Compare early vs late scatter (averaged over a few snapshots).
  double early = 0.0;
  double late = 0.0;
  const std::size_t window = 5;
  for (std::size_t i = 0; i < window; ++i) {
    early += trace.scatter(1 + i);
    late += trace.scatter(trace.size() - 1 - i);
  }
  EXPECT_LT(late, early);
}

TEST(GalaxyEmulator, OctantTrajectoryOppositeToShockProblem) {
  GalaxyConfig config = small_config(400);
  config.clumps = 32;
  GalaxyEmulator emulator(config);
  const AdaptationTrace trace = emulator.run();
  const octant::OctantClassifier classifier;
  const octant::OctantState early = classifier.classify(trace, 2);
  const octant::OctantState late =
      classifier.classify(trace, trace.size() - 1);
  // Early: scattered; late: less scattered than early (hierarchical
  // build-up concentrates the refinement).
  EXPECT_TRUE(early.scattered);
  EXPECT_LT(late.scatter_score, early.scatter_score);
}

TEST(GalaxyEmulator, PinnedTraceBytes) {
  // Galaxy regrids share cluster_flags with RM3D: its save_trace bytes are
  // pinned from before the one-pass node scan.
  GalaxyConfig config;
  config.coarse_steps = 80;
  const AdaptationTrace trace = GalaxyEmulator(config).run();
  std::ostringstream os;
  save_trace(os, trace);
  const std::string text = os.str();
  EXPECT_EQ(trace.size(), 21u);
  EXPECT_EQ(text.size(), 12210u);
  EXPECT_EQ(util::crc32(text.data(), text.size()), 0xbb58d025u);
}

}  // namespace
}  // namespace pragma::amr
