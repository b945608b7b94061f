// Shared prefix-sum view of a weight sequence.
//
// Every splitter reduces to two primitives over the 1-D work sequence:
// range sums ("how much work between two cuts") and monotone cut searches
// ("how far can this chunk extend before crossing its goal").  With the
// inclusive prefix sums materialized once, range sums are O(1) and cut
// searches are binary searches over the (non-decreasing, for non-negative
// weights) prefix array — turning the O(n)-rescan splitter kernels into
// O(p log n) ones.  The view owns only the prefix array, so it can be
// cached next to the sequence it summarizes (see WorkGrid::prefix_sums()).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pragma::partition {

class PrefixSums {
 public:
  PrefixSums() = default;
  /// Build the inclusive prefix sums of `weights` (left-to-right fold, the
  /// same association as std::accumulate so totals match the scan kernels
  /// bit for bit).  The binary searches assume non-negative weights.
  explicit PrefixSums(std::span<const double> weights);

  /// Number of elements summarized.
  [[nodiscard]] std::size_t size() const {
    return pre_.empty() ? 0 : pre_.size() - 1;
  }
  /// Sum of the first `i` elements (prefix(0) == 0, prefix(size()) == total).
  [[nodiscard]] double prefix(std::size_t i) const { return pre_[i]; }
  /// Sum over [lo, hi).
  [[nodiscard]] double sum(std::size_t lo, std::size_t hi) const {
    return pre_[hi] - pre_[lo];
  }
  /// Total over the whole sequence.
  [[nodiscard]] double total() const { return pre_.empty() ? 0.0 : pre_.back(); }

  /// Largest k in [lo, hi] with sum(lo, k) <= bound (clamped to lo when
  /// even the empty range exceeds a negative bound).
  [[nodiscard]] std::size_t last_within(std::size_t lo, std::size_t hi,
                                        double bound) const;
  [[nodiscard]] std::size_t last_within(std::size_t lo, double bound) const {
    return last_within(lo, size(), bound);
  }

  /// Smallest k in [lo, hi] with sum(lo, k) >= bound; hi if none.
  [[nodiscard]] std::size_t first_reaching(std::size_t lo, std::size_t hi,
                                           double bound) const;
  [[nodiscard]] std::size_t first_reaching(std::size_t lo,
                                           double bound) const {
    return first_reaching(lo, size(), bound);
  }

 private:
  /// pre_[i] = sum of weights[0..i); size() + 1 entries (empty when
  /// default-constructed).
  std::vector<double> pre_;
};

}  // namespace pragma::partition
