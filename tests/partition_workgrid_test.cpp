#include "pragma/partition/workgrid.hpp"

#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/synthetic.hpp"
#include "pragma/util/crc32.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::partition {
namespace {

amr::GridHierarchy simple_hierarchy() {
  amr::GridHierarchy h({16, 8, 8}, 2, 3);
  h.set_level_boxes(1, {amr::Box({0, 0, 0}, {8, 8, 8})});     // L1 space
  h.set_level_boxes(2, {amr::Box({0, 0, 0}, {8, 8, 8})});     // L2 space
  return h;
}

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
  // With equal work, an equal curve order gives an equal SFC sequence.
  ASSERT_EQ(actual.order(), expected.order());
  for (std::size_t i = 0; i <= n; ++i) {
    const double pa = actual.prefix_sums().prefix(i);
    const double pe = expected.prefix_sums().prefix(i);
    ASSERT_EQ(std::memcmp(&pa, &pe, sizeof(double)), 0) << "prefix @" << i;
  }
  const double ta = actual.total_work();
  const double te = expected.total_work();
  EXPECT_EQ(std::memcmp(&ta, &te, sizeof(double)), 0);
}

TEST(WorkGrid, LatticeDimsFromGrain) {
  const WorkGrid grid(simple_hierarchy(), 4);
  EXPECT_EQ(grid.lattice_dims(), (amr::IntVec3{4, 2, 2}));
  EXPECT_EQ(grid.cell_count(), 16u);
  EXPECT_EQ(grid.grain(), 4);
}

TEST(WorkGrid, BadGrainThrows) {
  EXPECT_THROW(WorkGrid(simple_hierarchy(), 0), std::invalid_argument);
}

// A box outside its level's domain would deposit outside the lattice, so
// the build rejects it, as both trace loaders do.
TEST(WorkGrid, BoxOutsideLevelDomainThrows) {
  // Level 1 of an 8^3 base at ratio 2 spans [0, 16)^3.
  amr::GridHierarchy h({8, 8, 8}, 2, 2);
  h.set_level_boxes(1, {amr::Box({12, 12, 12}, {40, 16, 16})});
  EXPECT_THROW(WorkGrid(h, 2), std::invalid_argument);
  EXPECT_THROW(WorkGrid::reference_build(h, 2), std::invalid_argument);
  h.set_level_boxes(1, {amr::Box({-2, 0, 0}, {4, 4, 4})});
  EXPECT_THROW(WorkGrid(h, 4), std::invalid_argument);
  // The domain's own upper faces are inside.
  h.set_level_boxes(1, {amr::Box({12, 12, 12}, {16, 16, 16})});
  const WorkGrid edge(h, 2);
  EXPECT_EQ(edge.levels_present(edge.cell_count() - 1), 0b11u);
}

TEST(WorkGrid, TotalWorkMatchesHierarchy) {
  const amr::GridHierarchy h = simple_hierarchy();
  const WorkGrid grid(h, 2);
  EXPECT_NEAR(grid.total_work(), h.total_work(), 1e-9);
}

TEST(WorkGrid, WorkConcentratedOverRefinement) {
  const WorkGrid grid(simple_hierarchy(), 4);
  // Level-1 box covers L0 region [0,4)^3: grain cell (0,0,0).
  const double refined = grid.work(grid.linear({0, 0, 0}));
  const double coarse = grid.work(grid.linear({3, 1, 1}));
  EXPECT_GT(refined, coarse * 5.0);
}

TEST(WorkGrid, LevelsPresentBitmask) {
  const WorkGrid grid(simple_hierarchy(), 4);
  // Refined corner: levels 0, 1 and 2 present.
  EXPECT_EQ(grid.levels_present(grid.linear({0, 0, 0})), 0b111u);
  // Far corner: only the base level.
  EXPECT_EQ(grid.levels_present(grid.linear({3, 1, 1})), 0b001u);
}

TEST(WorkGrid, StoragePositiveEverywhere) {
  const WorkGrid grid(simple_hierarchy(), 4);
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    EXPECT_GT(grid.storage(c), 0.0);
}

// The SFC sequence is the work in curve order; the prefix sums are its
// left fold.
TEST(WorkGrid, SequenceMatchesOrder) {
  for (const int grain : {2, 4}) {
    SCOPED_TRACE(grain);
    const WorkGrid grid(simple_hierarchy(), grain);
    const auto& order = grid.order();
    const PrefixSums& prefix = grid.prefix_sums();
    ASSERT_EQ(prefix.size(), order.size());
    EXPECT_EQ(prefix.prefix(0), 0.0);
    double sum = 0.0;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      sum += grid.work(order[rank]);
      EXPECT_EQ(prefix.prefix(rank + 1), sum) << "rank " << rank;
    }
  }
}

TEST(WorkGrid, SequenceSumEqualsTotalWork) {
  const WorkGrid grid(simple_hierarchy(), 2);
  double total = 0.0;
  for (std::uint32_t cell : grid.order()) total += grid.work(cell);
  EXPECT_NEAR(total, grid.total_work(), 1e-9);
  EXPECT_NEAR(grid.prefix_sums().total(), grid.total_work(), 1e-9);
}

TEST(WorkGrid, CoordsRoundTrip) {
  const WorkGrid grid(simple_hierarchy(), 4);
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    EXPECT_EQ(grid.linear(grid.coords(c)), c);
}

TEST(WorkGrid, CellBoxCoversGrainCube) {
  const WorkGrid grid(simple_hierarchy(), 4);
  const amr::Box box = grid.cell_box(grid.linear({1, 0, 1}));
  EXPECT_EQ(box, amr::Box({4, 0, 4}, {8, 4, 8}));
}

TEST(WorkGrid, NonDividingGrainRoundsUp) {
  amr::GridHierarchy h({10, 6, 6}, 2, 2);
  const WorkGrid grid(h, 4);
  EXPECT_EQ(grid.lattice_dims(), (amr::IntVec3{3, 2, 2}));
}

TEST(WorkGrid, FinerGrainPreservesTotals) {
  amr::SyntheticConfig config;
  config.box_count = 10;
  amr::SyntheticAppGenerator generator(config);
  const amr::GridHierarchy h = generator.build_hierarchy();
  const WorkGrid coarse(h, 8);
  const WorkGrid fine(h, 2);
  EXPECT_NEAR(coarse.total_work(), fine.total_work(),
              1e-9 * fine.total_work());
}

TEST(WorkGrid, MortonAndHilbertSameWorkDifferentOrder) {
  const amr::GridHierarchy h = simple_hierarchy();
  const WorkGrid morton(h, 2, CurveKind::kMorton);
  const WorkGrid hilbert(h, 2, CurveKind::kHilbert);
  EXPECT_NEAR(morton.total_work(), hilbert.total_work(), 1e-9);
  EXPECT_NE(morton.order(), hilbert.order());
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
  // The row kernel treats a footprint's first and last grain cell on each
  // axis apart from the whole-grain cells between them.  The spans
  // [lo, hi) with lo in [g, 2g) and hi - lo in [1, 4g] cover 1 to 5 grain
  // cells, aligned to the grain or not at either end, and every axis of
  // some box takes each span.  Level-1 boxes cover the spans exactly;
  // level-2 boxes coarsen to them from bounds off the level-1 lattice.
  for (int g = 1; g <= 4; ++g) {
    std::vector<std::pair<int, int>> spans;
    for (int lo = g; lo < 2 * g; ++lo)
      for (int hi = lo + 1; hi <= lo + 4 * g; ++hi) spans.emplace_back(lo, hi);
    const std::size_t n = spans.size();  // 4g^2: coprime with 7 and 13
    std::vector<amr::Box> level1;
    std::vector<amr::Box> level2;
    for (std::size_t b = 0; b < n; ++b) {
      const auto [xl, xh] = spans[b];
      const auto [yl, yh] = spans[(7 * b + 3) % n];
      const auto [zl, zh] = spans[(13 * b + 5) % n];
      level1.emplace_back(amr::IntVec3{2 * xl, 2 * yl, 2 * zl},
                          amr::IntVec3{2 * xh, 2 * yh, 2 * zh});
      level2.emplace_back(amr::IntVec3{4 * xl + 1, 4 * yl + 1, 4 * zl + 1},
                          amr::IntVec3{4 * xh - 1, 4 * yh - 1, 4 * zh - 1});
    }
    amr::GridHierarchy h({6 * g, 6 * g, 6 * g}, 2, 3);
    h.set_level_boxes(1, std::move(level1));
    h.set_level_boxes(2, std::move(level2));
    expect_bitwise_equal(WorkGrid(h, g), WorkGrid::reference_build(h, g));
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

  // Snapshot 0 survived (recently used): hit.  Snapshot 1 was evicted:
  // miss and rebuild.
  (void)cache.get_or_build(0, h, 2, CurveKind::kHilbert);
  (void)cache.get_or_build(1, h, 4, CurveKind::kHilbert);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
}

/// One line per (snapshot, grain, curve) of a 200-step RM3D trace: the
/// lattice size, the level count, and one CRC-32 over the raw bytes of the
/// per-cell work, level masks and storage, the SFC-ordered sequence, the
/// prefix sums 0..n, and the total work.
std::string workgrid_reference_text() {
  amr::Rm3dConfig config;
  config.coarse_steps = 200;
  const amr::AdaptationTrace trace = amr::Rm3dEmulator(config).run();
  std::string out;
  char line[128];
  for (std::size_t i = 0; i < trace.size(); ++i)
    for (const int grain : {1, 2, 4})
      for (const CurveKind curve : {CurveKind::kMorton, CurveKind::kHilbert}) {
        const WorkGrid grid(trace.at(i).hierarchy, grain, curve);
        const std::size_t n = grid.cell_count();
        std::vector<double> work(n);
        std::vector<double> storage(n);
        for (std::size_t c = 0; c < n; ++c) {
          work[c] = grid.work(c);
          storage[c] = grid.storage(c);
        }
        std::vector<double> sequence(n);
        for (std::size_t k = 0; k < n; ++k)
          sequence[k] = grid.work(grid.order()[k]);
        std::vector<double> prefix(n + 1);
        for (std::size_t k = 0; k <= n; ++k)
          prefix[k] = grid.prefix_sums().prefix(k);
        const double total = grid.total_work();
        std::uint32_t crc = util::crc32(work.data(), n * sizeof(double));
        crc = util::crc32(grid.levels().data(),
                          n * sizeof(std::uint32_t), crc);
        crc = util::crc32(storage.data(), n * sizeof(double), crc);
        crc = util::crc32(sequence.data(), n * sizeof(double), crc);
        crc = util::crc32(prefix.data(), prefix.size() * sizeof(double), crc);
        crc = util::crc32(&total, sizeof(total), crc);
        std::snprintf(line, sizeof(line),
                      "snapshot %zu grain %d curve %s cells %zu levels %d "
                      "crc %08x\n",
                      i, grain,
                      curve == CurveKind::kHilbert ? "hilbert" : "morton", n,
                      grid.num_levels(), static_cast<unsigned>(crc));
        out += line;
      }
  return out;
}

// Pins every grid bit for bit across refactors of the rasterizer and of its
// reference_build oracle alike.  On a mismatch the regenerated text is
// written to workgrid_reference.actual in the working directory; after a
// deliberate change to the grids, copy it over the reference.
TEST(WorkGrid, MatchesCommittedReference) {
  const std::string path =
      std::string(PRAGMA_SOURCE_DIR) + "/ci/workgrid_reference.out";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string actual = workgrid_reference_text();
  if (actual == expected.str()) return;
  std::ofstream("workgrid_reference.actual", std::ios::binary) << actual;
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string a_line;
  std::string e_line;
  for (int n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, a_line));
    const bool more_e = static_cast<bool>(std::getline(e, e_line));
    if (!more_a && !more_e) break;
    if (!more_a || !more_e || a_line != e_line) {
      ADD_FAILURE() << path << " differs at line " << n << "\n  expected: "
                    << (more_e ? e_line : "<eof>")
                    << "\n  actual:   " << (more_a ? a_line : "<eof>");
      return;
    }
  }
}

}  // namespace
}  // namespace pragma::partition
