// Timestamped measurement series with bounded history.
//
// Sensors append (time, value) samples; forecasters and the capacity
// calculator read recent history.  History is bounded so that long runs do
// not grow memory without bound (NWS similarly keeps rolling histories).
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "pragma/sim/simulator.hpp"

namespace pragma::monitor {

struct Sample {
  sim::SimTime time = 0.0;
  double value = 0.0;
};

class TimeSeries {
 public:
  explicit TimeSeries(std::size_t max_samples = 4096);

  void append(sim::SimTime time, double value);
  void clear();

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  /// Most samples retained; an append beyond it evicts the oldest.
  [[nodiscard]] std::size_t capacity() const { return max_samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] const Sample& back() const { return samples_.back(); }
  [[nodiscard]] const Sample& at(std::size_t i) const { return samples_[i]; }

  /// Most recent value, or `fallback` when empty.
  [[nodiscard]] double last_value(double fallback = 0.0) const;

  /// Values of the most recent `n` samples (or all, if fewer), oldest first.
  [[nodiscard]] std::vector<double> recent_values(std::size_t n) const;

  /// All retained values, oldest first.
  [[nodiscard]] std::vector<double> values() const;

 private:
  std::size_t max_samples_;
  std::deque<Sample> samples_;
};

}  // namespace pragma::monitor
