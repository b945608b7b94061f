#include "pragma/partition/partitioner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"

namespace pragma::partition {

namespace {

using Clock = std::chrono::steady_clock;

/// G-MISP's coarse starting block edge, in grain cells.
constexpr std::size_t kGMispStartBlock = 8;
/// A G-MISP block splits while its work exceeds this multiple of the mean
/// per-processor target.
constexpr double kGMispSplitFactor = 0.25;

obs::Histogram& partition_seconds_histogram() {
  static obs::Histogram& histogram = obs::metrics().histogram(
      "partition.seconds", obs::default_histogram_options());
  return histogram;
}

/// Fill an OwnerMap from sequence breaks: chunk i owns the grain cells at
/// ranks [breaks[i], breaks[i+1]).
OwnerMap owners_from_breaks(const WorkGrid& grid, const Breaks& breaks) {
  OwnerMap map;
  map.nprocs = static_cast<int>(breaks.size()) - 1;
  map.owner.assign(grid.cell_count(), 0);
  const auto& order = grid.order();
  for (std::size_t i = 0; i + 1 < breaks.size(); ++i)
    for (std::size_t rank = breaks[i]; rank < breaks[i + 1]; ++rank)
      map.owner[order[rank]] = static_cast<int>(i);
  return map;
}

std::size_t nonempty_chunks(const Breaks& breaks) {
  std::size_t count = 0;
  for (std::size_t i = 0; i + 1 < breaks.size(); ++i)
    if (breaks[i + 1] > breaks[i]) ++count;
  return count;
}

PartitionResult sequence_partition(const WorkGrid& grid,
                                   std::span<const double> targets,
                                   const std::string& name,
                                   Breaks (*splitter)(const PrefixSums&,
                                                      std::span<const double>)) {
  PRAGMA_SPAN_VAR(span, "partition", "Partitioner.partition");
  span.annotate("partitioner", name);
  span.annotate("cells", grid.cell_count());
  const auto start = Clock::now();
  // Splitters run on the grid's shared prefix-sum view: range sums are O(1)
  // and every cut is a binary search.
  const Breaks breaks = splitter(grid.prefix_sums(), targets);
  PartitionResult result;
  result.owners = owners_from_breaks(grid, breaks);
  result.partition_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.partitioner = name;
  result.chunk_count = nonempty_chunks(breaks);
  result.unit_count = grid.cell_count();
  partition_seconds_histogram().observe(result.partition_seconds);
  return result;
}

}  // namespace

PartitionResult SfcPartitioner::partition(
    const WorkGrid& grid, std::span<const double> targets) const {
  return sequence_partition(grid, targets, name(), &plain_greedy_split);
}

PartitionResult IspPartitioner::partition(
    const WorkGrid& grid, std::span<const double> targets) const {
  return sequence_partition(grid, targets, name(), &greedy_split);
}

PartitionResult PBdIspPartitioner::partition(
    const WorkGrid& grid, std::span<const double> targets) const {
  return sequence_partition(grid, targets, name(), &dissection_split);
}

PartitionResult SpIspPartitioner::partition(
    const WorkGrid& grid, std::span<const double> targets) const {
  return sequence_partition(grid, targets, name(), &optimal_split);
}

std::vector<std::size_t> GMispPartitioner::build_blocks(
    const WorkGrid& grid, std::span<const double> targets) const {
  const PrefixSums& sums = grid.prefix_sums();
  const std::size_t n = sums.size();

  // Mean per-processor goal; a block is split while it is heavier than
  // kGMispSplitFactor * goal, down to single grain cells.  Runs are halved
  // in rank space (Hilbert runs stay geometrically compact), which realizes
  // the "variable grain": dense regions end up with fine blocks, empty
  // regions with coarse ones.
  double goal = grid.total_work() / static_cast<double>(targets.size());
  const double limit = std::max(1e-12, kGMispSplitFactor * goal);

  const std::size_t start_len = std::min(
      kGMispStartBlock * kGMispStartBlock * kGMispStartBlock, n);

  // Depth-first agenda popped from the back, seeded right-to-left so that
  // blocks are emitted in ascending rank order.
  std::vector<std::size_t> result;
  std::vector<std::pair<std::size_t, std::size_t>> agenda;  // (begin, len)
  for (std::size_t begin = 0; begin < n; begin += start_len)
    agenda.emplace_back(begin, std::min(start_len, n - begin));
  std::reverse(agenda.begin(), agenda.end());
  while (!agenda.empty()) {
    auto [begin, len] = agenda.back();
    agenda.pop_back();
    const double work = sums.sum(begin, begin + len);
    if (len > 1 && work > limit) {
      const std::size_t half = len / 2;
      agenda.emplace_back(begin + half, len - half);
      agenda.emplace_back(begin, half);
      continue;
    }
    result.push_back(len);
  }
  return result;
}

Breaks GMispPartitioner::split_blocks(std::span<const double> block_weights,
                                      std::span<const double> targets) const {
  return greedy_split(block_weights, targets);
}

Breaks GMispSpPartitioner::split_blocks(
    std::span<const double> block_weights,
    std::span<const double> targets) const {
  return optimal_split(block_weights, targets);
}

PartitionResult GMispPartitioner::partition(
    const WorkGrid& grid, std::span<const double> targets) const {
  PRAGMA_SPAN_VAR(span, "partition", "Partitioner.partition");
  span.annotate("partitioner", name());
  span.annotate("cells", grid.cell_count());
  const auto start = Clock::now();
  const std::vector<std::size_t> lengths = build_blocks(grid, targets);

  // Aggregate the fine sequence into block weights (O(1) per block over
  // the shared prefix sums).
  const PrefixSums& sums = grid.prefix_sums();
  std::vector<double> block_weights;
  block_weights.reserve(lengths.size());
  std::size_t pos = 0;
  for (std::size_t len : lengths) {
    block_weights.push_back(sums.sum(pos, pos + len));
    pos += len;
  }

  const Breaks block_breaks = split_blocks(block_weights, targets);

  // Translate block breaks back to sequence breaks.
  std::vector<std::size_t> block_starts(lengths.size() + 1, 0);
  for (std::size_t b = 0; b < lengths.size(); ++b)
    block_starts[b + 1] = block_starts[b] + lengths[b];
  Breaks breaks(block_breaks.size());
  for (std::size_t i = 0; i < block_breaks.size(); ++i)
    breaks[i] = block_starts[block_breaks[i]];

  PartitionResult result;
  result.owners = owners_from_breaks(grid, breaks);
  result.partition_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.partitioner = name();
  result.chunk_count = nonempty_chunks(breaks);
  result.unit_count = lengths.size();
  partition_seconds_histogram().observe(result.partition_seconds);
  return result;
}

std::vector<std::unique_ptr<Partitioner>> standard_suite() {
  std::vector<std::unique_ptr<Partitioner>> suite;
  suite.push_back(std::make_unique<SfcPartitioner>());
  suite.push_back(std::make_unique<IspPartitioner>());
  suite.push_back(std::make_unique<GMispPartitioner>());
  suite.push_back(std::make_unique<GMispSpPartitioner>());
  suite.push_back(std::make_unique<PBdIspPartitioner>());
  suite.push_back(std::make_unique<SpIspPartitioner>());
  return suite;
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  for (auto& partitioner : standard_suite())
    if (partitioner->name() == name) return std::move(partitioner);
  throw std::invalid_argument("make_partitioner: unknown partitioner " +
                              name);
}

}  // namespace pragma::partition
