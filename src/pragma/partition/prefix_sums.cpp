#include "pragma/partition/prefix_sums.hpp"

#include <algorithm>

namespace pragma::partition {

PrefixSums::PrefixSums(std::span<const double> weights) {
  pre_.resize(weights.size() + 1);
  pre_[0] = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i)
    pre_[i + 1] = pre_[i] + weights[i];
}

std::size_t PrefixSums::last_within(std::size_t lo, std::size_t hi,
                                    double bound) const {
  const auto first = pre_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = pre_.begin() + static_cast<std::ptrdiff_t>(hi) + 1;
  const auto it = std::upper_bound(first, last, pre_[lo] + bound);
  if (it == first) return lo;  // negative bound: even the empty range fails
  return static_cast<std::size_t>(it - pre_.begin()) - 1;
}

std::size_t PrefixSums::first_reaching(std::size_t lo, std::size_t hi,
                                       double bound) const {
  const auto first = pre_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = pre_.begin() + static_cast<std::ptrdiff_t>(hi) + 1;
  const auto it = std::lower_bound(first, last, pre_[lo] + bound);
  if (it == last) return hi;
  return static_cast<std::size_t>(it - pre_.begin());
}

}  // namespace pragma::partition
