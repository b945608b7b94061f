// Property tests for the incremental partitioning pipeline: hierarchy
// deltas, WorkGrid::apply_delta vs from-scratch rebuilds (bitwise), and
// the bounded LRU work-grid cache.
#include "pragma/amr/delta.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pragma/partition/partitioner.hpp"
#include "pragma/partition/workgrid.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::partition {
namespace {

constexpr amr::IntVec3 kBase{32, 16, 16};
constexpr int kRatio = 2;
constexpr int kMaxLevels = 3;
constexpr int kGrain = 2;

/// A random axis-aligned box inside `domain` with edges that are multiples
/// of `align` (so refinement boxes look like regridder output).
amr::Box random_box(util::Rng& rng, amr::IntVec3 domain, int align) {
  const auto pick = [&](int extent) {
    const int slots = extent / align;
    const int lo = static_cast<int>(rng.uniform_int(0, slots - 2));
    const int hi = static_cast<int>(rng.uniform_int(lo + 1, slots));
    return std::pair<int, int>{lo * align, hi * align};
  };
  const auto [xl, xh] = pick(domain.x);
  const auto [yl, yh] = pick(domain.y);
  const auto [zl, zh] = pick(domain.z);
  return amr::Box({xl, yl, zl}, {xh, yh, zh});
}

amr::GridHierarchy random_hierarchy(util::Rng& rng) {
  amr::GridHierarchy h(kBase, kRatio, kMaxLevels);
  const amr::IntVec3 l1{kBase.x * kRatio, kBase.y * kRatio, kBase.z * kRatio};
  const amr::IntVec3 l2{l1.x * kRatio, l1.y * kRatio, l1.z * kRatio};
  std::vector<amr::Box> level1;
  for (int b = 0; b < static_cast<int>(rng.uniform_int(2, 6)); ++b)
    level1.push_back(random_box(rng, l1, 4));
  std::vector<amr::Box> level2;
  for (int b = 0; b < static_cast<int>(rng.uniform_int(1, 4)); ++b)
    level2.push_back(random_box(rng, l2, 8));
  h.set_level_boxes(1, std::move(level1));
  h.set_level_boxes(2, std::move(level2));
  return h;
}

/// One regrid: randomly drop, resize, and add boxes per refined level.
amr::GridHierarchy mutate(util::Rng& rng, const amr::GridHierarchy& h) {
  amr::GridHierarchy next = h;
  for (int l = 1; l < h.num_levels(); ++l) {
    const amr::Box domain = h.level_domain(l);
    const amr::IntVec3 dims{domain.hi().x, domain.hi().y, domain.hi().z};
    const int align = l == 1 ? 4 : 8;
    std::vector<amr::Box> boxes;
    for (const amr::Box& box : h.level(l).boxes) {
      const double roll = rng.uniform();
      if (roll < 0.25) continue;  // removed
      if (roll < 0.5) {
        boxes.push_back(random_box(rng, dims, align));  // resized/moved
        continue;
      }
      boxes.push_back(box);  // kept
    }
    for (int b = 0; b < static_cast<int>(rng.uniform_int(0, 2)); ++b)
      boxes.push_back(random_box(rng, dims, align));
    next.set_level_boxes(l, std::move(boxes));
  }
  return next;
}

void expect_bitwise_equal(const WorkGrid& actual, const WorkGrid& expected) {
  ASSERT_EQ(actual.cell_count(), expected.cell_count());
  ASSERT_EQ(actual.num_levels(), expected.num_levels());
  const std::size_t n = expected.cell_count();
  for (std::size_t c = 0; c < n; ++c) {
    const double wa = actual.work(c);
    const double we = expected.work(c);
    ASSERT_EQ(std::memcmp(&wa, &we, sizeof(double)), 0) << "work @" << c;
    ASSERT_EQ(actual.levels_present(c), expected.levels_present(c))
        << "levels @" << c;
    const double sa = actual.storage(c);
    const double se = expected.storage(c);
    ASSERT_EQ(std::memcmp(&sa, &se, sizeof(double)), 0) << "storage @" << c;
  }
  ASSERT_EQ(std::memcmp(actual.sequence().data(), expected.sequence().data(),
                        n * sizeof(double)),
            0);
  for (std::size_t i = 0; i <= n; ++i) {
    const double pa = actual.prefix_sums().prefix(i);
    const double pe = expected.prefix_sums().prefix(i);
    ASSERT_EQ(std::memcmp(&pa, &pe, sizeof(double)), 0) << "prefix @" << i;
  }
  const double ta = actual.total_work();
  const double te = expected.total_work();
  EXPECT_EQ(std::memcmp(&ta, &te, sizeof(double)), 0);
}

TEST(HierarchyDelta, IdenticalHierarchiesDiffEmpty) {
  util::Rng rng(7);
  const amr::GridHierarchy h = random_hierarchy(rng);
  const amr::HierarchyDelta delta = amr::diff_hierarchies(h, h);
  EXPECT_TRUE(delta.empty());
  EXPECT_TRUE(delta.compatible);
  EXPECT_EQ(delta.changed_boxes(), 0u);
  EXPECT_EQ(delta.churn(), 0.0);
}

TEST(HierarchyDelta, MovedBoxIsOneRemovalPlusOneAddition) {
  amr::GridHierarchy before(kBase, kRatio, kMaxLevels);
  before.set_level_boxes(1, {amr::Box({0, 0, 0}, {8, 8, 8})});
  amr::GridHierarchy after = before;
  after.set_level_boxes(1, {amr::Box({8, 0, 0}, {16, 8, 8})});
  const amr::HierarchyDelta delta = amr::diff_hierarchies(before, after);
  ASSERT_EQ(delta.levels.size(), 1u);
  EXPECT_EQ(delta.levels[0].level, 1);
  EXPECT_EQ(delta.levels[0].removed.size(), 1u);
  EXPECT_EQ(delta.levels[0].added.size(), 1u);
  EXPECT_EQ(delta.changed_boxes(), 2u);
}

TEST(HierarchyDelta, IncompatibleDomainsFlagged) {
  const amr::GridHierarchy a(kBase, kRatio, kMaxLevels);
  const amr::GridHierarchy b({64, 16, 16}, kRatio, kMaxLevels);
  EXPECT_FALSE(amr::diff_hierarchies(a, b).compatible);
}

TEST(HierarchyDelta, ReversedSwapsDirections) {
  util::Rng rng(11);
  const amr::GridHierarchy before = random_hierarchy(rng);
  const amr::GridHierarchy after = mutate(rng, before);
  const amr::HierarchyDelta delta = amr::diff_hierarchies(before, after);
  const amr::HierarchyDelta reverse = delta.reversed();
  EXPECT_EQ(reverse.before_levels, delta.after_levels);
  EXPECT_EQ(reverse.boxes_before, delta.boxes_after);
  ASSERT_EQ(reverse.levels.size(), delta.levels.size());
  for (std::size_t i = 0; i < delta.levels.size(); ++i) {
    EXPECT_EQ(reverse.levels[i].added.size(), delta.levels[i].removed.size());
    EXPECT_EQ(reverse.levels[i].removed.size(), delta.levels[i].added.size());
  }
}

// The core property: over randomized regrid sequences, an incrementally
// updated grid is indistinguishable — bit for bit, including the partitions
// computed from it — from one rebuilt from scratch.
TEST(ApplyDelta, RandomizedRegridSequenceMatchesRebuildBitwise) {
  util::Rng rng(42);
  const auto partitioner = make_partitioner("G-MISP+SP");
  const auto targets = equal_targets(8);

  amr::GridHierarchy current = random_hierarchy(rng);
  WorkGrid incremental(current, kGrain);
  for (int round = 0; round < 20; ++round) {
    const amr::GridHierarchy next = mutate(rng, current);
    const amr::HierarchyDelta delta = amr::diff_hierarchies(current, next);
    ASSERT_TRUE(incremental.apply_delta(delta)) << "round " << round;
    const WorkGrid rebuilt(next, kGrain);
    expect_bitwise_equal(incremental, rebuilt);

    const PartitionResult a = partitioner->partition(incremental, targets);
    const PartitionResult b = partitioner->partition(rebuilt, targets);
    EXPECT_EQ(a.owners.owner, b.owners.owner) << "round " << round;
    current = next;
  }
}

TEST(ApplyDelta, EmptyDeltaIsANoOp) {
  util::Rng rng(3);
  const amr::GridHierarchy h = random_hierarchy(rng);
  WorkGrid grid(h, kGrain);
  const WorkGrid before(h, kGrain);
  EXPECT_TRUE(grid.apply_delta(amr::diff_hierarchies(h, h)));
  expect_bitwise_equal(grid, before);
}

TEST(ApplyDelta, FullReplacementMatchesRebuild) {
  util::Rng rng(5);
  const amr::GridHierarchy before = random_hierarchy(rng);
  const amr::GridHierarchy after = random_hierarchy(rng);  // disjoint boxes
  WorkGrid grid(before, kGrain);
  ASSERT_TRUE(grid.apply_delta(amr::diff_hierarchies(before, after)));
  expect_bitwise_equal(grid, WorkGrid(after, kGrain));
}

TEST(ApplyDelta, RejectsIncompatibleDeltaUnchanged) {
  util::Rng rng(9);
  const amr::GridHierarchy h = random_hierarchy(rng);
  const amr::GridHierarchy other({64, 16, 16}, kRatio, kMaxLevels);
  WorkGrid grid(h, kGrain);
  const WorkGrid before(h, kGrain);
  EXPECT_FALSE(grid.apply_delta(amr::diff_hierarchies(h, other)));
  EXPECT_FALSE(grid.apply_delta(amr::diff_hierarchies(other, h)));
  expect_bitwise_equal(grid, before);
}

TEST(ApplyDelta, RoundTripRestoresOriginalBitwise) {
  util::Rng rng(13);
  const amr::GridHierarchy before = random_hierarchy(rng);
  const amr::GridHierarchy after = mutate(rng, before);
  const amr::HierarchyDelta delta = amr::diff_hierarchies(before, after);
  WorkGrid grid(before, kGrain);
  const WorkGrid original(before, kGrain);
  ASSERT_TRUE(grid.apply_delta(delta));
  ASSERT_TRUE(grid.apply_delta(delta.reversed()));
  expect_bitwise_equal(grid, original);
}

TEST(WorkGridOracle, VectorizedBuildMatchesReferenceKernels) {
  util::Rng rng(17);
  for (int round = 0; round < 5; ++round) {
    const amr::GridHierarchy h = random_hierarchy(rng);
    expect_bitwise_equal(WorkGrid(h, kGrain),
                         WorkGrid::reference_build(h, kGrain));
    // The parallel build merges per-block partials in block order, which is
    // exact for the integer-valued contributions.
    expect_bitwise_equal(
        WorkGrid(h, kGrain, CurveKind::kHilbert, 4),
        WorkGrid::reference_build(h, kGrain));
  }
}

TEST(WorkGridCache, EvictsLeastRecentlyUsedPastCap) {
  util::Rng rng(21);
  const amr::GridHierarchy h = random_hierarchy(rng);
  WorkGridCache cache(/*max_entries=*/2);
  EXPECT_EQ(cache.max_entries(), 2u);

  (void)cache.get_or_build(0, h, 2, CurveKind::kHilbert);
  (void)cache.get_or_build(1, h, 4, CurveKind::kHilbert);
  EXPECT_EQ(cache.size(), 2u);
  // Touch snapshot 0 so snapshot 1 is the LRU entry, then overflow.
  (void)cache.get_or_build(0, h, 2, CurveKind::kHilbert);
  (void)cache.get_or_build(2, h, 8, CurveKind::kHilbert);
  EXPECT_EQ(cache.size(), 2u);

  WorkGridCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.full_builds, 3u);

  // Snapshot 0 survived (recently used): hit.  Snapshot 1 was evicted:
  // miss and rebuild.
  (void)cache.get_or_build(0, h, 2, CurveKind::kHilbert);
  (void)cache.get_or_build(1, h, 4, CurveKind::kHilbert);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.full_builds, 4u);
}

TEST(WorkGridCache, GetOrUpdateDerivesGridIncrementally) {
  // A steady-state regrid: one box of many moves, so the delta churn is
  // well under kIncrementalChurnLimit and the cache must take the
  // apply_delta path rather than rebuilding.
  util::Rng rng(23);
  const amr::IntVec3 l1{kBase.x * kRatio, kBase.y * kRatio, kBase.z * kRatio};
  std::vector<amr::Box> boxes;
  for (int b = 0; b < 10; ++b) boxes.push_back(random_box(rng, l1, 4));
  amr::GridHierarchy before(kBase, kRatio, 2);
  before.set_level_boxes(1, boxes);
  boxes.back() = random_box(rng, l1, 4);
  amr::GridHierarchy after = before;
  after.set_level_boxes(1, boxes);
  ASSERT_LE(amr::diff_hierarchies(before, after).churn(),
            kIncrementalChurnLimit);
  WorkGridCache cache;
  (void)cache.get_or_build(0, before, kGrain, CurveKind::kHilbert);
  const auto updated =
      cache.get_or_update(1, after, 0, before, kGrain, CurveKind::kHilbert);
  expect_bitwise_equal(*updated, WorkGrid(after, kGrain));

  const WorkGridCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.incremental_builds, 1u);
  EXPECT_EQ(stats.full_builds, 1u);
  // Subsequent lookups hit the cached derived grid.
  (void)cache.get_or_update(1, after, 0, before, kGrain,
                            CurveKind::kHilbert);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(WorkGridCache, GetOrUpdateFallsBackWithoutPreviousEntry) {
  util::Rng rng(27);
  const amr::GridHierarchy before = random_hierarchy(rng);
  const amr::GridHierarchy after = mutate(rng, before);
  WorkGridCache cache;
  const auto grid =
      cache.get_or_update(1, after, 0, before, kGrain, CurveKind::kHilbert);
  expect_bitwise_equal(*grid, WorkGrid(after, kGrain));
  EXPECT_EQ(cache.stats().incremental_builds, 0u);
  EXPECT_EQ(cache.stats().full_builds, 1u);
}

}  // namespace
}  // namespace pragma::partition
