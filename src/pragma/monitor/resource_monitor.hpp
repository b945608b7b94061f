// The external resource monitoring system (NWS analogue).
//
// Periodically samples every node's available CPU fraction, available
// memory, and uplink bandwidth into per-resource time series, keeps an
// adaptive forecaster per series, and answers "current" and "forecast"
// queries.  Measurements carry configurable observation noise — real
// monitors never see the true state.
//
// Forecasts are computed when read: a sweep only appends, and forecast()
// or forecaster_choice() first feeds the ensemble the samples it has not
// seen, oldest first, from the series.  A sweep feeds them itself before
// the series could evict one, so the ensemble sees every sample in order
// and each forecast has the bits an eager feed would give.  A run that
// never reads a forecast runs no ensemble.  That feeding mutates state
// behind the const readers: forecast() and forecaster_choice() must not
// be called concurrently with each other or with a sweep.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "pragma/grid/cluster.hpp"
#include "pragma/monitor/forecaster.hpp"
#include "pragma/monitor/series.hpp"
#include "pragma/sim/simulator.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::monitor {

/// Which resource a query refers to.
enum class Resource { kCpu, kMemory, kBandwidth };

struct ResourceMonitorConfig {
  /// Seconds between measurement sweeps.
  double period_s = 2.0;
  /// Relative observation noise (std dev as a fraction of the reading).
  double noise = 0.02;
  /// Retained history length per series.
  std::size_t history = 2048;
};

/// A reading for one node: the three monitored quantities.
struct NodeReading {
  /// Available compute capacity in Gflop/s (peak speed x availability —
  /// what a capacity-aware partitioner actually needs on a heterogeneous
  /// cluster).
  double cpu_gflops = 0.0;
  double memory_mib = 0.0;      // available memory
  double bandwidth_mbps = 0.0;  // available uplink bandwidth
};

class ResourceMonitor {
 public:
  ResourceMonitor(sim::Simulator& simulator, const grid::Cluster& cluster,
                  ResourceMonitorConfig config, util::Rng rng);

  /// Begin periodic sampling.
  void start();
  void stop();

  /// Restrict sweeps to reachable nodes: when set and the predicate says
  /// no (node dead or partitioned away from the monitor), the sweep skips
  /// that node and its series simply stops growing — consumers see a
  /// stale-but-last-known reading, exactly like a real NWS probe timeout.
  void set_reachability(std::function<bool(grid::NodeId)> reachable);

  /// Take one measurement sweep immediately (also usable without start()).
  void sample_now();

  /// Simulated time of the most recent retained sample for a node
  /// (-infinity when the series is empty).  Lets consumers weigh staleness.
  [[nodiscard]] double last_sample_time(grid::NodeId node,
                                        Resource resource) const;

  /// Configured sweep period (staleness is measured in these units).
  [[nodiscard]] double period() const { return config_.period_s; }

  /// Most recent (noisy) reading for a node.
  [[nodiscard]] NodeReading current(grid::NodeId node) const;

  /// One-step-ahead forecast for a node/resource.  Not thread-safe (see
  /// the file comment).
  [[nodiscard]] double forecast(grid::NodeId node, Resource resource) const;

  /// Full history for a node/resource.
  [[nodiscard]] const TimeSeries& series(grid::NodeId node,
                                         Resource resource) const;

  /// Name of the forecaster member currently trusted for a series.  Not
  /// thread-safe (see the file comment).
  [[nodiscard]] std::string forecaster_choice(grid::NodeId node,
                                              Resource resource) const;

  [[nodiscard]] std::size_t sweeps() const { return sweeps_; }
  [[nodiscard]] std::size_t node_count() const { return per_node_.size(); }

 private:
  struct PerResource {
    TimeSeries series;
    std::unique_ptr<AdaptiveForecaster> forecaster;
    /// The newest `unfed` samples of `series` have not been observed by
    /// `forecaster` yet.
    mutable std::size_t unfed = 0;
    explicit PerResource(std::size_t history)
        : series(history), forecaster(AdaptiveForecaster::standard()) {}

    /// Append a sample, feeding the ensemble once the unfed samples fill
    /// the series, so the next append evicts none unseen.
    void append(sim::SimTime time, double value);
    /// Observe the unfed samples, oldest first.
    void feed() const;
  };
  struct PerNode {
    PerResource cpu;
    PerResource memory;
    PerResource bandwidth;
    explicit PerNode(std::size_t history)
        : cpu(history), memory(history), bandwidth(history) {}
  };
  [[nodiscard]] const PerResource& resource_of(grid::NodeId node,
                                               Resource resource) const;
  /// The ensemble of a series, fed up to its newest sample.
  [[nodiscard]] const AdaptiveForecaster& forecaster_of(
      grid::NodeId node, Resource resource) const;
  [[nodiscard]] double noisy(double value);

  sim::Simulator& simulator_;
  const grid::Cluster& cluster_;
  ResourceMonitorConfig config_;
  util::Rng rng_;
  std::function<bool(grid::NodeId)> reachable_;
  std::vector<PerNode> per_node_;
  sim::EventHandle tick_;
  bool running_ = false;
  std::size_t sweeps_ = 0;
};

}  // namespace pragma::monitor
