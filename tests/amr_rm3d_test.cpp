#include "pragma/amr/rm3d.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "pragma/io/snapshot.hpp"
#include "pragma/util/crc32.hpp"

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

namespace pragma::amr {
namespace {

Rm3dConfig short_config(int steps = 120) {
  Rm3dConfig config;
  config.coarse_steps = steps;
  return config;
}

TEST(Rm3dEmulator, DefaultsMatchPaperSetup) {
  const Rm3dConfig config;
  EXPECT_EQ(config.base_dims, (IntVec3{128, 32, 32}));
  EXPECT_EQ(config.max_levels, 3);
  EXPECT_EQ(config.ratio, 2);
  EXPECT_EQ(config.regrid_interval, 4);
  EXPECT_EQ(config.coarse_steps, 800);
}

TEST(Rm3dEmulator, ThresholdValidation) {
  Rm3dConfig config;
  config.thresholds = {1.0};  // needs 2 for 3 levels
  EXPECT_THROW(Rm3dEmulator{config}, std::invalid_argument);
}

TEST(Rm3dEmulator, InitialHierarchyHasRefinement) {
  Rm3dEmulator emulator(short_config());
  EXPECT_GE(emulator.hierarchy().num_levels(), 2);
  EXPECT_GT(emulator.hierarchy().total_cells(),
            emulator.hierarchy().level(0).cell_count());
}

TEST(Rm3dEmulator, AdvanceRegridsOnInterval) {
  Rm3dEmulator emulator(short_config());
  EXPECT_FALSE(emulator.advance());  // step 1
  EXPECT_FALSE(emulator.advance());
  EXPECT_FALSE(emulator.advance());
  EXPECT_TRUE(emulator.advance());   // step 4: regrid
  EXPECT_EQ(emulator.step(), 4);
}

TEST(Rm3dEmulator, TraceHasSnapshotPerRegridPlusInitial) {
  Rm3dEmulator emulator(short_config(40));
  const AdaptationTrace trace = emulator.run();
  EXPECT_EQ(trace.size(), 11u);  // steps 0, 4, 8, ..., 40
  EXPECT_EQ(trace.at(0).step, 0);
  EXPECT_EQ(trace.at(10).step, 40);
}

TEST(Rm3dEmulator, FullPaperTraceHasOver200Snapshots) {
  Rm3dEmulator emulator;  // 800 steps, regrid every 4
  // Don't run the whole thing here; the count is determined by config.
  EXPECT_EQ(emulator.config().coarse_steps /
                    emulator.config().regrid_interval +
                1,
            201);
}

TEST(Rm3dEmulator, ShockMovesForward) {
  const Rm3dEmulator emulator(short_config());
  const double early = emulator.shock_position(0.05);
  const double later = emulator.shock_position(0.10);
  EXPECT_GT(later, early);
}

TEST(Rm3dEmulator, ShockStartsOutsideAndEnters) {
  const Rm3dEmulator emulator(short_config());
  EXPECT_FALSE(emulator.shock_active(0.0));
  EXPECT_TRUE(emulator.shock_active(0.10));
  EXPECT_FALSE(emulator.shock_active(0.50));   // exited
  EXPECT_TRUE(emulator.shock_active(0.60));    // reshock
  EXPECT_FALSE(emulator.shock_active(0.90));   // absorbed
}

TEST(Rm3dEmulator, MixingZoneGrowsAfterHit) {
  const Rm3dEmulator emulator(short_config());
  const double before = emulator.mixing_width(0.10);
  const double after = emulator.mixing_width(0.40);
  const double late = emulator.mixing_width(0.95);
  EXPECT_GT(after, before);
  EXPECT_GT(late, after);
}

TEST(Rm3dEmulator, MixingCenterDriftsDownstream) {
  const Rm3dEmulator emulator(short_config());
  EXPECT_GT(emulator.mixing_center(0.9), emulator.mixing_center(0.1));
}

TEST(Rm3dEmulator, IndicatorPeaksAtShockFront) {
  const Rm3dEmulator emulator(short_config());
  const double tau = 0.10;
  const double front = emulator.shock_position(tau);
  EXPECT_GT(emulator.indicator(front, 0.5, 0.5, tau), 2.0);
  EXPECT_LT(emulator.indicator(front + 0.2, 0.5, 0.5, tau), 2.0);
}

TEST(Rm3dEmulator, IndicatorNonNegativeEverywhere) {
  const Rm3dEmulator emulator(short_config());
  for (double tau : {0.0, 0.2, 0.5, 0.8, 1.0})
    for (double u = 0.05; u < 1.0; u += 0.1)
      EXPECT_GE(emulator.indicator(u, 0.4, 0.6, tau), 0.0);
}

TEST(Rm3dEmulator, DeterministicForSameSeed) {
  Rm3dEmulator a(short_config(40));
  Rm3dEmulator b(short_config(40));
  const AdaptationTrace ta = a.run();
  const AdaptationTrace tb = b.run();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta.at(i).hierarchy.total_cells(),
              tb.at(i).hierarchy.total_cells());
  }
}

TEST(Rm3dEmulator, DifferentSeedsDifferInBlobPhase) {
  Rm3dConfig ca = short_config(200);
  Rm3dConfig cb = short_config(200);
  cb.seed = 99;
  AdaptationTrace ta = Rm3dEmulator(ca).run();
  AdaptationTrace tb = Rm3dEmulator(cb).run();
  // After the shock-interface interaction the blob populations differ.
  bool differs = false;
  for (std::size_t i = ta.size() / 2; i < ta.size(); ++i)
    if (ta.at(i).hierarchy.total_cells() != tb.at(i).hierarchy.total_cells())
      differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rm3dEmulator, ProperNestingAcrossLevels) {
  Rm3dEmulator emulator(short_config(200));
  for (int s = 0; s < 160; ++s) emulator.advance();
  const GridHierarchy& h = emulator.hierarchy();
  for (int level = 2; level < h.num_levels(); ++level) {
    for (const Box& fine : h.level(level).boxes) {
      // Every fine box must be fully covered by the next coarser level.
      const Box in_coarser = fine.coarsen(h.ratio());
      std::int64_t covered = 0;
      for (const Box& coarse : h.level(level - 1).boxes)
        covered += in_coarser.intersection(coarse).volume();
      EXPECT_EQ(covered, in_coarser.volume());
    }
  }
}

TEST(Rm3dEmulator, LevelsStayInsideDomains) {
  Rm3dEmulator emulator(short_config(120));
  AdaptationTrace trace = emulator.run();
  for (std::size_t i = 0; i < trace.size(); i += 5) {
    const GridHierarchy& h = trace.at(i).hierarchy;
    for (int level = 1; level < h.num_levels(); ++level) {
      const Box domain = h.level_domain(level);
      for (const Box& box : h.level(level).boxes)
        EXPECT_TRUE(domain.contains(box));
    }
  }
}

TEST(Rm3dEmulator, BoxesWithinLevelAreDisjoint) {
  Rm3dEmulator emulator(short_config(160));
  for (int s = 0; s < 140; ++s) emulator.advance();
  const GridHierarchy& h = emulator.hierarchy();
  for (int level = 1; level < h.num_levels(); ++level) {
    const auto& boxes = h.level(level).boxes;
    for (std::size_t i = 0; i < boxes.size(); ++i)
      for (std::size_t j = i + 1; j < boxes.size(); ++j)
        EXPECT_FALSE(boxes[i].intersects(boxes[j]))
            << "level " << level << " boxes " << i << "," << j;
  }
}

TEST(Rm3dEmulator, AmrEfficiencyStaysHigh) {
  Rm3dEmulator emulator(short_config(120));
  AdaptationTrace trace = emulator.run();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_GT(trace.at(i).hierarchy.amr_efficiency(), 0.9)
        << "snapshot " << i;
  }
}


TEST(Rm3dEmulator, RuntimePatchSizeBoundHonored) {
  // The dynamic application-configuration hook: a policy-imposed patch
  // bound takes effect at the next regrid.
  Rm3dEmulator emulator(short_config(200));
  for (int s = 0; s < 160; ++s) emulator.advance();
  emulator.set_max_box_cells(2048);
  emulator.regrid();
  const GridHierarchy& h = emulator.hierarchy();
  for (int level = 1; level < h.num_levels(); ++level)
    for (const Box& box : h.level(level).boxes)
      EXPECT_LE(box.volume(), 2048) << "level " << level;
}

TEST(Rm3dEmulator, SmallerPatchBoundMeansMoreBoxes) {
  Rm3dEmulator coarse(short_config(200));
  Rm3dEmulator fine(short_config(200));
  for (int s = 0; s < 160; ++s) {
    coarse.advance();
    fine.advance();
  }
  fine.set_max_box_cells(1024);
  fine.regrid();
  coarse.regrid();
  std::size_t coarse_boxes = 0;
  std::size_t fine_boxes = 0;
  for (int l = 1; l < coarse.hierarchy().num_levels(); ++l)
    coarse_boxes += coarse.hierarchy().level(l).box_count();
  for (int l = 1; l < fine.hierarchy().num_levels(); ++l)
    fine_boxes += fine.hierarchy().level(l).box_count();
  EXPECT_GT(fine_boxes, coarse_boxes);
}

// Brute-force regrid oracle: indicator() on every coverage cell through
// FlagField::flag_where, then the same cluster, refine and chop steps as a
// regrid.  Returns the boxes level `level` + 1 must have.
std::vector<Box> brute_force_refinement(const Rm3dEmulator& emulator,
                                        int level) {
  const GridHierarchy& h = emulator.hierarchy();
  const Rm3dConfig& config = emulator.config();
  std::vector<Box> coverage;
  if (level == 0)
    coverage.push_back(h.level_domain(0));
  else if (level < h.num_levels())
    coverage = h.level(level).boxes;
  if (coverage.empty()) return {};
  const Box domain = bounding_box(coverage);
  FlagField covered(domain);
  for (const Box& box : coverage)
    for (int z = box.lo().z; z < box.hi().z; ++z)
      for (int y = box.lo().y; y < box.hi().y; ++y)
        for (int x = box.lo().x; x < box.hi().x; ++x) covered.set({x, y, z});
  const auto r = static_cast<double>(h.cumulative_ratio(level));
  const double nx = config.base_dims.x * r;
  const double ny = config.base_dims.y * r;
  const double nz = config.base_dims.z * r;
  const double tau = emulator.normalized_time();
  const double threshold = config.thresholds[static_cast<std::size_t>(level)];
  FlagField flags(domain);
  flags.flag_where([&](IntVec3 p) {
    return covered.get(p) &&
           emulator.indicator((p.x + 0.5) / nx, (p.y + 0.5) / ny,
                              (p.z + 0.5) / nz, tau) >= threshold;
  });
  if (!flags.any()) return {};
  ClusterOptions options = config.cluster;
  options.max_box_cells = 0;
  std::vector<Box> refined;
  for (const Box& box : cluster_flags(flags, domain, options)) {
    const Box fine = box.refine(config.ratio);
    if (config.cluster.max_box_cells > 0 &&
        fine.volume() > config.cluster.max_box_cells) {
      const std::vector<Box> pieces = fine.chop(config.cluster.max_box_cells);
      refined.insert(refined.end(), pieces.begin(), pieces.end());
    } else {
      refined.push_back(fine);
    }
  }
  return refined;
}

// Runs `config` and checks every regrid (the initial one included) against
// the brute-force oracle; `at_step` may adjust the emulator mid-run.
void expect_regrids_match_brute_force(
    const Rm3dConfig& config,
    const std::function<void(Rm3dEmulator&)>& at_step = {}) {
  Rm3dEmulator emulator(config);
  int regrids = 0;
  bool regridded = true;
  while (true) {
    if (regridded) {
      ++regrids;
      const GridHierarchy& h = emulator.hierarchy();
      for (int level = 0; level + 1 < config.max_levels; ++level) {
        const std::vector<Box> expected =
            level + 1 < h.num_levels() ? h.level(level + 1).boxes
                                       : std::vector<Box>{};
        ASSERT_EQ(brute_force_refinement(emulator, level), expected)
            << "step " << emulator.step() << " level " << level;
        if (expected.empty()) break;
      }
    }
    if (emulator.step() >= config.coarse_steps) break;
    if (at_step) at_step(emulator);
    regridded = emulator.advance();
  }
  EXPECT_EQ(regrids, config.coarse_steps / config.regrid_interval + 1);
}

TEST(Rm3dRegridEquivalence, Default200Steps) {
  expect_regrids_match_brute_force(short_config(200));
}

TEST(Rm3dRegridEquivalence, FourLevelsSeed99) {
  Rm3dConfig config = short_config(120);
  config.seed = 99;
  config.max_levels = 4;
  config.thresholds = {1.0, 2.0, 2.5};
  expect_regrids_match_brute_force(config);
}

TEST(Rm3dRegridEquivalence, RatioThree) {
  Rm3dConfig config = short_config(120);
  config.ratio = 3;
  config.base_dims = {64, 48, 16};
  expect_regrids_match_brute_force(config);
}

TEST(Rm3dRegridEquivalence, ZeroThresholdTakesWholeRows) {
  Rm3dConfig config = short_config(200);
  config.base_dims = {32, 8, 8};
  config.thresholds = {0.0, 2.0};
  expect_regrids_match_brute_force(config);
}

TEST(Rm3dRegridEquivalence, PatchBoundChangedMidRun) {
  expect_regrids_match_brute_force(short_config(200), [](Rm3dEmulator& e) {
    if (e.step() == 100) e.set_max_box_cells(2048);
  });
}

// Thresholds between and on the terms' peaks: the oracle must agree on
// both sides of every term, and both levels must still refine.
void expect_thresholds_match_brute_force(std::vector<double> thresholds) {
  Rm3dConfig config = short_config(120);
  config.base_dims = {64, 16, 16};
  config.thresholds = std::move(thresholds);
  int deepest = 0;
  expect_regrids_match_brute_force(config, [&deepest](Rm3dEmulator& e) {
    deepest = std::max(deepest, e.hierarchy().num_levels());
  });
  EXPECT_EQ(deepest, 3);
}

TEST(Rm3dRegridEquivalence, ThresholdsAbovePeaksOfBandInterfaceAndCore) {
  // 1.36 is above the shock band's and the interface's peaks, 2.65 above
  // the shock core's; the slab, start-up noise and blobs still reach.
  expect_thresholds_match_brute_force({1.36, 2.65});
}

TEST(Rm3dRegridEquivalence, ThresholdsOnPeaksOfSlabAndCore) {
  // Each threshold equals a term's peak: the >= boundary.
  expect_thresholds_match_brute_force({1.55, 2.6});
}

// Golden io::encode_trace bytes of the emulator's hierarchies: any change
// to the hierarchies shows up here.
struct TraceDigest {
  std::size_t snapshots;
  std::size_t bytes;
  std::uint32_t crc;
};

TraceDigest digest(const AdaptationTrace& trace) {
  io::ByteWriter writer;
  io::encode_trace(writer, trace);
  const std::vector<std::uint8_t>& bytes = writer.bytes();
  return {trace.size(), bytes.size(), util::crc32(bytes.data(), bytes.size())};
}

TEST(Rm3dEmulator, PinnedTraceBytes200Steps) {
  const TraceDigest d = digest(Rm3dEmulator(short_config(200)).run());
  EXPECT_EQ(d.snapshots, 51u);
  EXPECT_EQ(d.bytes, 46816u);
  EXPECT_EQ(d.crc, 0xd763043du);
}

TEST(Rm3dEmulator, PinnedTraceBytes64Steps) {
  EXPECT_EQ(digest(Rm3dEmulator(short_config(64)).run()).crc, 0x50741247u);
}

// The canonical trace (default config, 800 steps) that Tables 2-4,
// Figure 3 and the trace-replay benchmark all replay.
TEST(Rm3dEmulator, PinnedTraceBytes800Steps) {
  const TraceDigest d = digest(Rm3dEmulator().run());
  EXPECT_EQ(d.snapshots, 201u);
  EXPECT_EQ(d.bytes, 181996u);
  EXPECT_EQ(d.crc, 0x4250ba8du);
}

}  // namespace
}  // namespace pragma::amr
