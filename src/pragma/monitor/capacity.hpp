// Relative-capacity calculator (Figure 4, left half).
//
// "The relative capacity C_i for the i-th grid-element is defined as the
//  weighted sum of normalized values of the individual available CPU P_i,
//  memory M_i, and link bandwidth B_i capacities returned by NWS.  Weights
//  are application dependent and reflect its computational, memory, and
//  communication requirements.  Once the relative capacities of the
//  processors are computed, the workload is distributed proportionately."
#pragma once

#include <vector>

#include "pragma/monitor/resource_monitor.hpp"

namespace pragma::monitor {

/// Application-dependent weights for combining resource dimensions.
/// They are normalized to sum to 1 at use time.
struct CapacityWeights {
  double cpu = 0.6;
  double memory = 0.2;
  double bandwidth = 0.2;
};

/// The computed capacities: one non-negative fraction per node, summing to 1
/// over nodes that are up (all zeros if nothing is available).
struct RelativeCapacities {
  std::vector<double> fraction;
  [[nodiscard]] std::size_t size() const { return fraction.size(); }
  [[nodiscard]] double operator[](std::size_t i) const { return fraction[i]; }
};

/// How to treat readings from nodes the monitor could not sweep recently
/// (dead, partitioned, or probe timeouts).  A reading older than
/// `fresh_age_s` decays exponentially toward a conservative prior instead
/// of being trusted at face value: a silent node earns a shrinking share
/// of the workload rather than its last-known one.
struct StalenessPolicy {
  /// Readings at most this old count as fresh (typically 2x sweep period).
  double fresh_age_s = 4.0;
  /// Exponential decay time constant applied beyond fresh_age_s.
  double decay_tau_s = 10.0;
  /// The prior the reading decays toward, as a fraction of the median
  /// *fresh* reading across nodes (0 = assume the silent node has nothing).
  double prior_fraction = 0.0;
};

class CapacityCalculator {
 public:
  explicit CapacityCalculator(CapacityWeights weights = {})
      : weights_(weights) {}

  [[nodiscard]] const CapacityWeights& weights() const { return weights_; }

  /// Compute capacities from the monitor's *current* readings.
  [[nodiscard]] RelativeCapacities from_current(
      const ResourceMonitor& monitor) const;

  /// Compute capacities from the monitor's one-step *forecasts* (proactive
  /// management, the Pragma extension over plain NWS consumption).
  [[nodiscard]] RelativeCapacities from_forecast(
      const ResourceMonitor& monitor) const;

  /// Staleness-aware variants for a degraded monitor: readings (or
  /// forecasts) from series last sampled before `now - fresh_age` decay
  /// toward the conservative prior.  The proactive variant additionally
  /// falls back from the forecaster to the decayed last reading whenever a
  /// series has gaps — extrapolating a forecaster across a hole in its
  /// input is worse than admitting ignorance.
  [[nodiscard]] RelativeCapacities from_current(
      const ResourceMonitor& monitor, double now,
      const StalenessPolicy& policy) const;
  [[nodiscard]] RelativeCapacities from_forecast(
      const ResourceMonitor& monitor, double now,
      const StalenessPolicy& policy) const;

  /// Compute capacities from raw readings (used by tests and by callers
  /// that bypass the monitor).
  [[nodiscard]] RelativeCapacities from_readings(
      const std::vector<NodeReading>& readings) const;

 private:
  CapacityWeights weights_;
};

}  // namespace pragma::monitor
