// PrefixSums unit tests and prefix-vs-reference splitter equivalence.
//
// The splitters run on prefix-sum kernels (binary-search cuts); the
// original scan implementations are kept under the reference_ prefix and
// must produce identical breaks.  The equivalence sweeps use exactly
// representable weights (integers and dyadic rationals, as the RM3D work
// weights are), so prefix differences equal element-by-element sums bit
// for bit and the comparison is exact, not approximate.
#include "pragma/partition/prefix_sums.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/partition/splitters.hpp"
#include "pragma/partition/workgrid.hpp"

namespace pragma::partition {
namespace {

TEST(PrefixSums, SumsAndTotal) {
  const std::vector<double> weights{1, 2, 3, 4};
  const PrefixSums sums(weights);
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_DOUBLE_EQ(sums.prefix(0), 0.0);
  EXPECT_DOUBLE_EQ(sums.prefix(4), 10.0);
  EXPECT_DOUBLE_EQ(sums.sum(0, 4), 10.0);
  EXPECT_DOUBLE_EQ(sums.sum(1, 3), 5.0);
  EXPECT_DOUBLE_EQ(sums.sum(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(sums.total(), 10.0);
}

TEST(PrefixSums, EmptySequence) {
  const PrefixSums sums(std::vector<double>{});
  EXPECT_EQ(sums.size(), 0u);
  EXPECT_DOUBLE_EQ(sums.total(), 0.0);
  EXPECT_EQ(sums.last_within(0, 5.0), 0u);
  EXPECT_EQ(sums.first_reaching(0, 5.0), 0u);
}

TEST(PrefixSums, LastWithin) {
  const std::vector<double> weights{1, 2, 3, 4};
  const PrefixSums sums(weights);
  EXPECT_EQ(sums.last_within(0, 0.0), 0u);    // nothing fits in 0
  EXPECT_EQ(sums.last_within(0, 0.5), 0u);
  EXPECT_EQ(sums.last_within(0, 1.0), 1u);    // exactly the first element
  EXPECT_EQ(sums.last_within(0, 2.9), 1u);
  EXPECT_EQ(sums.last_within(0, 3.0), 2u);
  EXPECT_EQ(sums.last_within(0, 100.0), 4u);
  EXPECT_EQ(sums.last_within(0, -1.0), 0u);   // negative bound clamps to lo
  EXPECT_EQ(sums.last_within(2, 2, 9.0), 2u);  // empty range
  EXPECT_EQ(sums.last_within(1, 3, 2.0), 2u);
}

TEST(PrefixSums, LastWithinSkipsZeroRuns) {
  // upper_bound lands past an entire run of equal prefix values, so
  // trailing zero-weight elements within the bound are consumed.
  const std::vector<double> weights{1, 0, 0, 2};
  const PrefixSums sums(weights);
  EXPECT_EQ(sums.last_within(0, 1.0), 3u);
  EXPECT_EQ(sums.last_within(0, 0.5), 0u);
}

TEST(PrefixSums, FirstReaching) {
  const std::vector<double> weights{1, 2, 3, 4};
  const PrefixSums sums(weights);
  EXPECT_EQ(sums.first_reaching(0, 0.0), 0u);   // bound <= 0: nothing needed
  EXPECT_EQ(sums.first_reaching(0, 1.0), 1u);
  EXPECT_EQ(sums.first_reaching(0, 1.5), 2u);
  EXPECT_EQ(sums.first_reaching(0, 10.0), 4u);
  EXPECT_EQ(sums.first_reaching(0, 11.0), 4u);  // unreachable: hi
  EXPECT_EQ(sums.first_reaching(1, 3, 9.0), 3u);
}

// ---- Equivalence sweeps ---------------------------------------------------

struct KernelPair {
  const char* name;
  Breaks (*prefix)(std::span<const double>, std::span<const double>);
  Breaks (*reference)(std::span<const double>, std::span<const double>);
};

const KernelPair kKernels[] = {
    {"greedy", &greedy_split, &reference_greedy_split},
    {"plain_greedy", &plain_greedy_split, &reference_plain_greedy_split},
    {"optimal", &optimal_split, &reference_optimal_split},
    {"dissection", &dissection_split, &reference_dissection_split},
};

void expect_all_equivalent(const std::vector<double>& weights,
                           const std::vector<double>& targets,
                           const char* context) {
  for (const KernelPair& kernel : kKernels) {
    const Breaks got = kernel.prefix(weights, targets);
    const Breaks want = kernel.reference(weights, targets);
    EXPECT_EQ(got, want) << kernel.name << ": " << context;
  }
  // The PrefixSums overloads must agree with the span overloads too.
  const PrefixSums sums(weights);
  EXPECT_EQ(greedy_split(sums, targets), greedy_split(weights, targets))
      << context;
  EXPECT_EQ(plain_greedy_split(sums, targets),
            plain_greedy_split(weights, targets))
      << context;
  EXPECT_EQ(dissection_split(sums, targets),
            dissection_split(weights, targets))
      << context;
  EXPECT_EQ(optimal_split(sums, targets), optimal_split(weights, targets))
      << context;
}

std::vector<double> normalized(std::vector<double> raw) {
  double total = 0.0;
  for (double r : raw) total += r;
  if (total <= 0.0) return raw;
  for (double& r : raw) r /= total;
  return raw;
}

TEST(SplitterEquivalence, RandomIntegerWeights) {
  std::mt19937_64 rng(20260807);
  std::uniform_int_distribution<int> weight_dist(0, 1000);
  for (const std::size_t n : {1u, 2u, 5u, 17u, 64u, 500u}) {
    for (const std::size_t p : {1u, 2u, 3u, 7u, 16u, 64u}) {
      std::vector<double> weights(n);
      for (double& w : weights)
        w = static_cast<double>(weight_dist(rng));
      expect_all_equivalent(weights, equal_targets(p),
                            ("n=" + std::to_string(n) +
                             " p=" + std::to_string(p))
                                .c_str());
    }
  }
}

TEST(SplitterEquivalence, DyadicFractionalWeights) {
  // Dyadic rationals (k/1024) are exactly representable and sum exactly,
  // covering non-integer weight values.
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> weight_dist(0, 4096);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> weights(200);
    for (double& w : weights)
      w = static_cast<double>(weight_dist(rng)) / 1024.0;
    expect_all_equivalent(weights, equal_targets(16), "dyadic");
  }
}

TEST(SplitterEquivalence, SkewedTargets) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> weight_dist(0, 1000);
  std::uniform_int_distribution<int> target_dist(1, 100);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> weights(128);
    for (double& w : weights)
      w = static_cast<double>(weight_dist(rng));
    std::vector<double> targets(12);
    for (double& t : targets)
      t = static_cast<double>(target_dist(rng));
    expect_all_equivalent(weights, normalized(targets), "skewed");
  }
}

TEST(SplitterEquivalence, ZeroTargetShares) {
  const std::vector<double> weights{3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<double> targets{0.0, 0.5, 0.0, 0.5};
  expect_all_equivalent(weights, targets, "zero targets");
}

TEST(SplitterEquivalence, ZeroWeights) {
  expect_all_equivalent(std::vector<double>(32, 0.0), equal_targets(4),
                        "all zero");
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> weight_dist(0, 3);
  for (int round = 0; round < 20; ++round) {
    // ~Half the elements zero: exercises the zero-run consumption paths.
    std::vector<double> weights(100);
    for (double& w : weights) {
      const int v = weight_dist(rng);
      w = v <= 1 ? 0.0 : static_cast<double>(v * 10);
    }
    expect_all_equivalent(weights, equal_targets(8), "sparse");
  }
}

TEST(SplitterEquivalence, SingleElement) {
  for (const std::size_t p : {1u, 2u, 8u}) {
    expect_all_equivalent({5.0}, equal_targets(p), "single");
    expect_all_equivalent({0.0}, equal_targets(p), "single zero");
  }
}

TEST(SplitterEquivalence, Rm3dSequence) {
  // The real workload: an RM3D snapshot's SFC-ordered work sequence.
  amr::Rm3dConfig config;
  config.coarse_steps = 60;
  amr::Rm3dEmulator emulator(config);
  for (int s = 0; s < 40; ++s) emulator.advance();
  const WorkGrid grid(emulator.hierarchy(), 2);
  std::vector<double> weights;
  for (const std::uint32_t c : grid.order()) weights.push_back(grid.work(c));
  ASSERT_GT(weights.size(), 0u);
  for (const std::size_t p : {16u, 64u})
    expect_all_equivalent(weights, equal_targets(p), "rm3d");
  // The grid's own shared PrefixSums view gives the same breaks as well.
  EXPECT_EQ(greedy_split(grid.prefix_sums(), equal_targets(64)),
            reference_greedy_split(weights, equal_targets(64)));
}

TEST(ChunkLoadsEquivalence, MatchesReference) {
  std::mt19937_64 rng(123);
  std::uniform_int_distribution<int> weight_dist(0, 1000);
  std::vector<double> weights(100);
  for (double& w : weights) w = static_cast<double>(weight_dist(rng));
  const Breaks breaks = greedy_split(weights, equal_targets(7));
  const PrefixSums sums(weights);
  const auto reference = reference_chunk_loads(weights, breaks);
  EXPECT_EQ(chunk_loads(weights, breaks), reference);
  EXPECT_EQ(chunk_loads(sums, breaks), reference);
}

}  // namespace
}  // namespace pragma::partition
