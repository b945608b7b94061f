// Thread-parallel pipeline paths and the shared caches: parallel results
// must match the serial path exactly, the curve-order cache must hand out
// one shared vector under concurrent access, and the WorkGrid cache must
// build each (snapshot, grain, curve) grid once.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/partition/sfc.hpp"
#include "pragma/partition/workgrid.hpp"

namespace pragma::partition {
namespace {

amr::GridHierarchy rm3d_hierarchy(int steps = 40) {
  amr::Rm3dConfig config;
  config.coarse_steps = steps + 20;
  amr::Rm3dEmulator emulator(config);
  for (int s = 0; s < steps; ++s) emulator.advance();
  return emulator.hierarchy();
}

TEST(CurveOrderShared, RepeatedCallsShareOneVector) {
  const auto a = curve_order_shared({8, 8, 8}, CurveKind::kHilbert);
  const auto b = curve_order_shared({8, 8, 8}, CurveKind::kHilbert);
  EXPECT_EQ(a.get(), b.get());
  const auto c = curve_order_shared({8, 8, 8}, CurveKind::kMorton);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(*a, curve_order({8, 8, 8}, CurveKind::kHilbert));
}

TEST(CurveOrderShared, ConcurrentAccessIsConsistent) {
  // Many threads hammering the cache with a mix of keys must all observe
  // the same shared vector per key (and no crashes/races under TSan).
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::vector<std::shared_ptr<const std::vector<std::uint32_t>>>>
      seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([t, &seen] {
        for (int i = 0; i < kIters; ++i) {
          const int edge = 4 + (i % 3) * 4;  // 4, 8, 12
          seen[t].push_back(curve_order_shared({edge, edge, edge},
                                               CurveKind::kHilbert));
        }
      });
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 1; t < kThreads; ++t)
    for (int i = 0; i < kIters; ++i)
      EXPECT_EQ(seen[t][i].get(), seen[0][i].get());
}

TEST(WorkGridParallel, MatchesSerialExactly) {
  const amr::GridHierarchy hierarchy = rm3d_hierarchy();
  const WorkGrid serial(hierarchy, 2, CurveKind::kHilbert, 1);
  const WorkGrid parallel(hierarchy, 2, CurveKind::kHilbert, 4);
  ASSERT_EQ(serial.cell_count(), parallel.cell_count());
  // RM3D work weights are integer-valued, so the per-block partial merge
  // is exact and the grids must match bit for bit.
  for (std::size_t c = 0; c < serial.cell_count(); ++c) {
    EXPECT_EQ(serial.work(c), parallel.work(c)) << c;
    EXPECT_EQ(serial.storage(c), parallel.storage(c)) << c;
    EXPECT_EQ(serial.levels_present(c), parallel.levels_present(c)) << c;
  }
  EXPECT_EQ(serial.total_work(), parallel.total_work());
  for (std::size_t k = 0; k <= serial.cell_count(); ++k)
    EXPECT_EQ(serial.prefix_sums().prefix(k), parallel.prefix_sums().prefix(k))
        << k;
  EXPECT_EQ(&serial.order(), &parallel.order());  // shared curve cache
}

TEST(WorkGridCacheTest, SameKeySharesOneGrid) {
  const amr::GridHierarchy hierarchy = rm3d_hierarchy();
  WorkGridCache cache;
  const auto a = cache.get_or_build(0, hierarchy, 2, CurveKind::kHilbert);
  const auto b = cache.get_or_build(0, hierarchy, 2, CurveKind::kHilbert);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  const auto c = cache.get_or_build(1, hierarchy, 2, CurveKind::kHilbert);
  const auto d = cache.get_or_build(0, hierarchy, 4, CurveKind::kHilbert);
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.size(), 3u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Entries outlive the cache they came from.
  EXPECT_GT(a->cell_count(), 0u);
}

TEST(WorkGridCacheTest, ConcurrentGetOrBuildYieldsOneGrid) {
  const amr::GridHierarchy hierarchy = rm3d_hierarchy();
  WorkGridCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const WorkGrid>> grids(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([t, &cache, &hierarchy, &grids] {
        grids[t] = cache.get_or_build(static_cast<std::size_t>(t % 2),
                                      hierarchy, 2, CurveKind::kHilbert);
      });
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(cache.size(), 2u);
  for (int t = 2; t < kThreads; ++t)
    EXPECT_EQ(grids[t].get(), grids[t % 2].get());
}

}  // namespace
}  // namespace pragma::partition
