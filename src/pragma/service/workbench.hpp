// Workbench: an open testbed assembled from a RunSpec.
//
// Where Scheduler/Runtime execute *closed* workloads end to end, some
// programs want the parts on the bench with the wires exposed — drive the
// simulator by hand, attach custom sensors and actuators, install policy
// rules at runtime, read monitor series directly.  Workbench owns the
// standard wiring (simulator, cluster, background load, failure injector,
// NWS monitor, and a lazily built agent environment) and hands out
// references, replacing the per-example copies of that boilerplate.
//
// RNG stream layout (all keyed off spec.seed): 0 = cluster build,
// 1 = background load, 2 = monitor noise — matching the historical
// interactive examples, not ManagedRun's layout.
#pragma once

#include <memory>

#include "pragma/agents/mcs.hpp"
#include "pragma/grid/failure.hpp"
#include "pragma/grid/loadgen.hpp"
#include "pragma/monitor/resource_monitor.hpp"
#include "pragma/policy/builtin.hpp"
#include "pragma/service/run_spec.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/sim/simulator.hpp"

namespace pragma::service {

/// Capped exponential backoff for admission retries.  A shed status's
/// ShedInfo::retry_after_ms hint, when present, overrides the
/// exponential wait for that attempt; every wait is capped at cap_ms.
struct RetryBackoff {
  int base_ms = 10;
  int cap_ms = 1000;
  int max_attempts = 8;
};

/// Batched submit with retry: submit the whole batch, then on each
/// backoff round resubmit ONLY the slots that came back as retryable
/// sheds (ShedInfo::retryable — tagged sheds by reason, untagged by the
/// backpressure codes kUnavailable/kResourceExhausted).  Slots that
/// were admitted, or that failed non-retryably, are never resubmitted.
/// The wait for a round is the largest retry_after_ms hint among the
/// shed slots, falling back to the exponential schedule.  Results stay
/// index-aligned with `specs`.
[[nodiscard]] std::vector<util::Expected<RunHandle>> submit_batch_with_retry(
    Runtime& runtime, std::vector<RunSpec> specs, RetryBackoff backoff = {});

class Workbench {
 public:
  /// Builds simulator, cluster (capacity_spread > 0 = heterogeneous), and
  /// — when spec.with_background_load — a started load generator.  The
  /// monitor is constructed but not sampling until start_monitoring().
  explicit Workbench(
      RunSpec spec,
      policy::PolicyBase policies = policy::standard_policy_base());

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] grid::Cluster& cluster() { return cluster_; }
  /// Mutable until environment() is first called: rules added here are in
  /// the knowledge base the ADM consults.
  [[nodiscard]] policy::PolicyBase& policies() { return policies_; }
  [[nodiscard]] grid::FailureInjector& failures() { return failures_; }
  [[nodiscard]] monitor::ResourceMonitor& monitor() { return monitor_; }
  [[nodiscard]] const RunSpec& spec() const { return spec_; }

  /// Begin periodic NWS sampling (idempotent).
  void start_monitoring();

  /// The agent control network: MCS template + ADM + one component agent
  /// per processor, built on first call (so policy rules and tweaks made
  /// beforehand are in effect).  The caller wires sensors/actuators and
  /// calls .start() — exactly the surface the steering examples need.
  [[nodiscard]] agents::Environment& environment();

  /// Advance simulated time by `seconds`.
  void advance(double seconds);

 private:
  RunSpec spec_;
  sim::Simulator simulator_;
  grid::Cluster cluster_;
  std::unique_ptr<grid::LoadGenerator> loadgen_;
  grid::FailureInjector failures_;
  monitor::ResourceMonitor monitor_;
  bool monitoring_ = false;
  policy::PolicyBase policies_;
  std::unique_ptr<agents::Mcs> mcs_;
  std::unique_ptr<agents::Environment> environment_;
};

}  // namespace pragma::service
