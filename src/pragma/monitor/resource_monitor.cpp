#include "pragma/monitor/resource_monitor.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace pragma::monitor {

ResourceMonitor::ResourceMonitor(sim::Simulator& simulator,
                                 const grid::Cluster& cluster,
                                 ResourceMonitorConfig config, util::Rng rng)
    : simulator_(simulator), cluster_(cluster), config_(config), rng_(rng) {
  per_node_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i)
    per_node_.emplace_back(config_.history);
}

void ResourceMonitor::start() {
  if (running_) return;
  running_ = true;
  tick_ = simulator_.schedule_periodic(config_.period_s,
                                       [this] { sample_now(); },
                                       /*first_delay=*/0.0);
}

void ResourceMonitor::stop() {
  if (!running_) return;
  running_ = false;
  simulator_.cancel(tick_);
}

double ResourceMonitor::noisy(double value) {
  if (config_.noise <= 0.0) return value;
  return std::max(0.0, value * (1.0 + rng_.normal(0.0, config_.noise)));
}

void ResourceMonitor::set_reachability(
    std::function<bool(grid::NodeId)> reachable) {
  reachable_ = std::move(reachable);
}

void ResourceMonitor::sample_now() {
  const sim::SimTime now = simulator_.now();
  for (grid::NodeId id = 0; id < per_node_.size(); ++id) {
    if (reachable_ && !reachable_(id)) continue;  // probe times out
    const grid::Node& node = cluster_.node(id);
    const grid::Link& link = cluster_.uplink(id);
    PerNode& series = per_node_[id];

    const double cpu = noisy(node.effective_gflops());
    const double mem = noisy(node.available_memory_mib());
    const double bw =
        noisy(link.effective_bytes_per_s() * 8.0 / 1.0e6);  // -> Mb/s

    series.cpu.append(now, std::max(cpu, 0.0));
    series.memory.append(now, mem);
    series.bandwidth.append(now, bw);
  }
  ++sweeps_;
}

void ResourceMonitor::PerResource::append(sim::SimTime time, double value) {
  series.append(time, value);
  if (++unfed == series.capacity()) feed();
}

void ResourceMonitor::PerResource::feed() const {
  for (std::size_t i = series.size() - unfed; i < series.size(); ++i)
    forecaster->observe(series.at(i).value);
  unfed = 0;
}

const ResourceMonitor::PerResource& ResourceMonitor::resource_of(
    grid::NodeId node, Resource resource) const {
  const PerNode& per_node = per_node_.at(node);
  switch (resource) {
    case Resource::kCpu:
      return per_node.cpu;
    case Resource::kMemory:
      return per_node.memory;
    case Resource::kBandwidth:
      return per_node.bandwidth;
  }
  return per_node.cpu;  // unreachable
}

NodeReading ResourceMonitor::current(grid::NodeId node) const {
  const PerNode& per_node = per_node_.at(node);
  NodeReading reading;
  reading.cpu_gflops = per_node.cpu.series.last_value(0.0);
  reading.memory_mib = per_node.memory.series.last_value(0.0);
  reading.bandwidth_mbps = per_node.bandwidth.series.last_value(0.0);
  return reading;
}

double ResourceMonitor::last_sample_time(grid::NodeId node,
                                         Resource resource) const {
  const TimeSeries& series = resource_of(node, resource).series;
  if (series.empty()) return -std::numeric_limits<double>::infinity();
  return series.back().time;
}

const AdaptiveForecaster& ResourceMonitor::forecaster_of(
    grid::NodeId node, Resource resource) const {
  const PerResource& per_resource = resource_of(node, resource);
  per_resource.feed();
  return *per_resource.forecaster;
}

double ResourceMonitor::forecast(grid::NodeId node, Resource resource) const {
  return forecaster_of(node, resource).predict();
}

const TimeSeries& ResourceMonitor::series(grid::NodeId node,
                                          Resource resource) const {
  return resource_of(node, resource).series;
}

std::string ResourceMonitor::forecaster_choice(grid::NodeId node,
                                               Resource resource) const {
  return forecaster_of(node, resource).best_member();
}

}  // namespace pragma::monitor
