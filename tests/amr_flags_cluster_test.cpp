#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include "pragma/amr/cluster_br.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::amr {
namespace {

TEST(FlagFieldTest, SetGetCount) {
  FlagField flags(Box({0, 0, 0}, {8, 8, 8}));
  EXPECT_EQ(flags.count(), 0);
  flags.set({1, 2, 3});
  EXPECT_TRUE(flags.get({1, 2, 3}));
  EXPECT_EQ(flags.count(), 1);
  flags.set({1, 2, 3});  // idempotent
  EXPECT_EQ(flags.count(), 1);
  flags.set({1, 2, 3}, false);
  EXPECT_EQ(flags.count(), 0);
}

TEST(FlagFieldTest, OutOfDomainIgnored) {
  FlagField flags(Box({0, 0, 0}, {4, 4, 4}));
  flags.set({10, 10, 10});
  EXPECT_EQ(flags.count(), 0);
  EXPECT_FALSE(flags.get({10, 10, 10}));
}

TEST(FlagFieldTest, NonZeroOrigin) {
  FlagField flags(Box({4, 4, 4}, {8, 8, 8}));
  flags.set({5, 6, 7});
  EXPECT_TRUE(flags.get({5, 6, 7}));
  EXPECT_FALSE(flags.get({1, 1, 1}));
}

TEST(FlagFieldTest, EmptyDomainThrows) {
  EXPECT_THROW(FlagField(Box{}), std::invalid_argument);
}

TEST(FlagFieldTest, FlagWherePredicate) {
  FlagField flags(Box({0, 0, 0}, {8, 8, 8}));
  flags.flag_where([](IntVec3 p) { return p.x < 2; });
  EXPECT_EQ(flags.count(), 2 * 8 * 8);
  EXPECT_EQ(flags.count_in(Box({0, 0, 0}, {1, 8, 8})), 64);
}

TEST(FlagFieldTest, SignatureSumsMatchCount) {
  FlagField flags(Box({0, 0, 0}, {8, 6, 4}));
  util::Rng rng(5);
  flags.flag_where([&rng](IntVec3) { return rng.bernoulli(0.3); });
  for (int axis = 0; axis < 3; ++axis) {
    const auto sig = flags.signature(flags.domain(), axis);
    std::int64_t total = 0;
    for (std::int64_t s : sig) total += s;
    EXPECT_EQ(total, flags.count()) << "axis " << axis;
  }
}

TEST(FlagFieldTest, MinimalBoundingBoxTight) {
  FlagField flags(Box({0, 0, 0}, {16, 16, 16}));
  flags.set({3, 4, 5});
  flags.set({7, 8, 9});
  const Box bound = flags.minimal_bounding_box(flags.domain());
  EXPECT_EQ(bound, Box({3, 4, 5}, {8, 9, 10}));
}

TEST(FlagFieldTest, MinimalBoundingBoxEmptyWhenNoFlags) {
  FlagField flags(Box({0, 0, 0}, {4, 4, 4}));
  EXPECT_TRUE(flags.minimal_bounding_box(flags.domain()).empty());
}

TEST(FlagFieldTest, OrRowMatchesCellwiseSets) {
  const Box domain({3, -2, 5}, {13, 4, 9});
  FlagField rows(domain);
  FlagField cells(domain);
  util::Rng rng(11);
  // Overlapping rows of random bytes, zeros among them: each row is ORed
  // whole into one field and set cell by cell into the other.
  const auto in_domain = [&rng, &domain](int axis) {
    return static_cast<int>(
        rng.uniform_int(domain.lo()[axis], domain.hi()[axis] - 1));
  };
  for (int i = 0; i < 80; ++i) {
    const IntVec3 start{in_domain(0), in_domain(1), in_domain(2)};
    std::vector<std::uint8_t> row(
        static_cast<std::size_t>(rng.uniform_int(1, domain.hi().x - start.x)));
    for (std::uint8_t& byte : row)
      byte = rng.bernoulli(0.6) ? 0 : static_cast<std::uint8_t>(
                                          rng.uniform_int(1, 255));
    rows.or_row(start, row);
    for (std::size_t x = 0; x < row.size(); ++x)
      if (row[x] != 0) cells.set(start + IntVec3{static_cast<int>(x), 0, 0});
    ASSERT_EQ(rows.count(), cells.count()) << "row " << i;
  }
  EXPECT_GT(cells.count(), 0);
  EXPECT_LT(cells.count(), domain.volume());
  for (int z = domain.lo().z; z < domain.hi().z; ++z)
    for (int y = domain.lo().y; y < domain.hi().y; ++y)
      for (int x = domain.lo().x; x < domain.hi().x; ++x)
        EXPECT_EQ(rows.get({x, y, z}), cells.get({x, y, z}));
  const FlagField::RegionScan a = rows.scan(domain);
  const FlagField::RegionScan b = cells.scan(domain);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.signatures, b.signatures);
}

TEST(FlagFieldTest, OrRowZerosNeverClear) {
  FlagField flags(Box({-4, 2, 1}, {4, 5, 3}));
  flags.set({-2, 3, 2});
  flags.set({1, 3, 2});
  flags.or_row({-4, 3, 2}, std::vector<std::uint8_t>(8, 0));
  EXPECT_EQ(flags.count(), 2);
  EXPECT_TRUE(flags.get({-2, 3, 2}));
  EXPECT_TRUE(flags.get({1, 3, 2}));
  // Re-flagging a flagged cell does not count it twice.
  flags.or_row({-2, 3, 2}, std::vector<std::uint8_t>{1, 0, 7});
  EXPECT_EQ(flags.count(), 3);
  EXPECT_TRUE(flags.get({0, 3, 2}));
}

TEST(FlagFieldTest, OrRowOutsideDomainThrows) {
  FlagField flags(Box({0, 0, 0}, {4, 4, 4}));
  const std::vector<std::uint8_t> row(3, 1);
  EXPECT_THROW(flags.or_row({2, 0, 0}, row), std::out_of_range);
  EXPECT_THROW(flags.or_row({-1, 0, 0}, row), std::out_of_range);
  EXPECT_THROW(flags.or_row({0, 4, 0}, row), std::out_of_range);
  EXPECT_EQ(flags.count(), 0);
}

TEST(ClusterBr, EmptyFlagsYieldNoBoxes) {
  FlagField flags(Box({0, 0, 0}, {16, 16, 16}));
  EXPECT_TRUE(cluster_flags(flags, flags.domain()).empty());
}

TEST(ClusterBr, SingleBlockIsTight) {
  FlagField flags(Box({0, 0, 0}, {32, 32, 32}));
  const Box block({8, 8, 8}, {16, 16, 16});
  flags.flag_where([&](IntVec3 p) { return block.contains(p); });
  const auto boxes = cluster_flags(flags, flags.domain());
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], block);
  EXPECT_DOUBLE_EQ(clustering_efficiency(flags, boxes), 1.0);
}

TEST(ClusterBr, TwoSeparatedBlocksSplitAtHole) {
  FlagField flags(Box({0, 0, 0}, {64, 16, 16}));
  const Box left({0, 0, 0}, {8, 8, 8});
  const Box right({48, 0, 0}, {56, 8, 8});
  flags.flag_where(
      [&](IntVec3 p) { return left.contains(p) || right.contains(p); });
  const auto boxes = cluster_flags(flags, flags.domain());
  ASSERT_EQ(boxes.size(), 2u);
  EXPECT_DOUBLE_EQ(clustering_efficiency(flags, boxes), 1.0);
}

TEST(ClusterBr, EveryFlagCoveredExactlyOnce) {
  FlagField flags(Box({0, 0, 0}, {32, 32, 16}));
  util::Rng rng(9);
  // Scattered blobs.
  for (int blob = 0; blob < 6; ++blob) {
    const IntVec3 c{static_cast<int>(rng.uniform_int(4, 28)),
                    static_cast<int>(rng.uniform_int(4, 28)),
                    static_cast<int>(rng.uniform_int(4, 12))};
    flags.flag_where([&](IntVec3 p) {
      const IntVec3 d = p - c;
      return d.x * d.x + d.y * d.y + d.z * d.z <= 9;
    });
  }
  const auto boxes = cluster_flags(flags, flags.domain());
  // Coverage: every flagged cell inside exactly one box.
  std::int64_t covered_flags = 0;
  for (const Box& box : boxes) covered_flags += flags.count_in(box);
  EXPECT_EQ(covered_flags, flags.count());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
}

TEST(ClusterBr, EfficiencyThresholdRespectedOnSplittableBoxes) {
  FlagField flags(Box({0, 0, 0}, {64, 32, 32}));
  util::Rng rng(11);
  for (int blob = 0; blob < 10; ++blob) {
    const IntVec3 c{static_cast<int>(rng.uniform_int(6, 58)),
                    static_cast<int>(rng.uniform_int(6, 26)),
                    static_cast<int>(rng.uniform_int(6, 26))};
    flags.flag_where([&](IntVec3 p) {
      const IntVec3 d = p - c;
      return d.x * d.x + d.y * d.y + d.z * d.z <= 16;
    });
  }
  ClusterOptions options;
  options.efficiency = 0.5;
  const auto boxes = cluster_flags(flags, flags.domain(), options);
  EXPECT_GE(clustering_efficiency(flags, boxes), 0.35);
}

TEST(ClusterBr, MaxBoxCellsChopsBigBoxes) {
  FlagField flags(Box({0, 0, 0}, {32, 32, 32}));
  flags.flag_where([](IntVec3) { return true; });
  ClusterOptions options;
  options.max_box_cells = 1024;
  const auto boxes = cluster_flags(flags, flags.domain(), options);
  EXPECT_GT(boxes.size(), 1u);
  std::int64_t total = 0;
  for (const Box& box : boxes) {
    EXPECT_LE(box.volume(), 1024);
    total += box.volume();
  }
  EXPECT_EQ(total, 32 * 32 * 32);
}

TEST(ClusterBr, RestrictedRegionOnlyClustersInside) {
  FlagField flags(Box({0, 0, 0}, {32, 8, 8}));
  flags.flag_where([](IntVec3) { return true; });
  const Box region({0, 0, 0}, {16, 8, 8});
  const auto boxes = cluster_flags(flags, region);
  for (const Box& box : boxes) EXPECT_TRUE(region.contains(box));
}

// Property sweep: for random flag densities the clustering always covers
// all flags disjointly and meets a sane efficiency floor.
class ClusterProperty : public ::testing::TestWithParam<double> {};

TEST_P(ClusterProperty, CoverageAndEfficiency) {
  FlagField flags(Box({0, 0, 0}, {24, 24, 24}));
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 1000));
  flags.flag_where(
      [&rng, this](IntVec3) { return rng.bernoulli(GetParam()); });
  if (!flags.any()) return;
  const auto boxes = cluster_flags(flags, flags.domain());
  std::int64_t covered = 0;
  for (const Box& box : boxes) covered += flags.count_in(box);
  EXPECT_EQ(covered, flags.count());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
}

INSTANTIATE_TEST_SUITE_P(Densities, ClusterProperty,
                         ::testing::Values(0.01, 0.05, 0.15, 0.4, 0.8,
                                           0.99));

// The clusterer's one-pass node scan against its three oracles.
void expect_scan_matches_oracles(const FlagField& flags, const Box& region) {
  const FlagField::RegionScan scan = flags.scan(region);
  const Box bound = flags.minimal_bounding_box(region);
  ASSERT_EQ(scan.bound, bound) << "region " << region;
  EXPECT_EQ(scan.count, flags.count_in(bound)) << "region " << region;
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_EQ(scan.signatures[static_cast<std::size_t>(axis)],
              flags.signature(bound, axis))
        << "region " << region << " axis " << axis;
}

class RegionScanProperty : public ::testing::TestWithParam<double> {};

TEST_P(RegionScanProperty, EqualsBoundCountAndSignatures) {
  const Box domain({3, -2, 5}, {23, 14, 17});  // non-zero origin
  FlagField flags(domain);
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 1000) + 1);
  flags.flag_where(
      [&rng, this](IntVec3) { return rng.bernoulli(GetParam()); });
  expect_scan_matches_oracles(flags, domain);
  // Random sub-regions, many reaching past the domain or missing it.
  for (int i = 0; i < 200; ++i) {
    IntVec3 lo;
    IntVec3 hi;
    for (int axis = 0; axis < 3; ++axis) {
      const int a = static_cast<int>(rng.uniform_int(
          domain.lo()[axis] - 4, domain.hi()[axis] + 4));
      const int b = static_cast<int>(rng.uniform_int(
          domain.lo()[axis] - 4, domain.hi()[axis] + 4));
      lo[axis] = std::min(a, b);
      hi[axis] = std::max(a, b) + 1;
    }
    expect_scan_matches_oracles(flags, Box(lo, hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, RegionScanProperty,
                         ::testing::Values(0.0, 0.01, 0.05, 0.15, 0.4, 0.8,
                                           0.99, 1.0));

TEST(RegionScan, EmptyAndDisjointRegionsScanEmpty) {
  FlagField flags(Box({4, 4, 4}, {12, 12, 12}));
  flags.set({5, 6, 7});
  for (const Box& region :
       {Box{}, Box({0, 0, 0}, {4, 12, 12}), Box({8, 8, 8}, {8, 12, 12}),
        Box({20, 20, 20}, {30, 30, 30}), Box({6, 4, 4}, {12, 12, 12})}) {
    const FlagField::RegionScan scan = flags.scan(region);
    EXPECT_TRUE(scan.bound.empty()) << "region " << region;
    EXPECT_EQ(scan.count, 0);
    for (const auto& signature : scan.signatures)
      EXPECT_TRUE(signature.empty());
    expect_scan_matches_oracles(flags, region);
  }
}

}  // namespace
}  // namespace pragma::amr
