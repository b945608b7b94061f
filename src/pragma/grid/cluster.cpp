#include "pragma/grid/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pragma::grid {

double Node::compute_time(double gflop) const {
  const double speed = effective_gflops();
  if (speed <= 0.0) return std::numeric_limits<double>::infinity();
  return gflop / speed;
}

double Link::transfer_time(double bytes) const {
  if (!state_.up) return std::numeric_limits<double>::infinity();
  const double rate = effective_bytes_per_s();
  if (rate <= 0.0) return std::numeric_limits<double>::infinity();
  return spec_.latency_s + bytes / rate;
}

Cluster::Cluster(std::vector<Node> nodes, std::vector<Link> links,
                 SwitchSpec fabric)
    : nodes_(std::move(nodes)), links_(std::move(links)), fabric_(fabric) {
  if (nodes_.size() != links_.size())
    throw std::invalid_argument("Cluster: one uplink per node required");
}

double Cluster::transfer_time(NodeId src, NodeId dst, double bytes) const {
  if (src == dst) return 0.0;
  const double up = links_.at(src).transfer_time(bytes);
  const double down = links_.at(dst).transfer_time(bytes);
  // Store-and-forward through the switch: both link serializations count,
  // plus the fabric's forwarding latency.
  double total = up + down + fabric_.forwarding_latency_s;
  // Inter-site transfers additionally traverse the WAN.
  if (has_wan_ && !same_site(src, dst)) total += wan_.transfer_time(bytes);
  return total;
}

double Cluster::path_bandwidth(NodeId src, NodeId dst) const {
  if (src == dst) return std::numeric_limits<double>::infinity();
  double bw = std::min(links_.at(src).effective_bytes_per_s(),
                       links_.at(dst).effective_bytes_per_s());
  if (has_wan_ && !same_site(src, dst))
    bw = std::min(bw, wan_.effective_bytes_per_s());
  return bw;
}

double Cluster::total_effective_gflops() const {
  double total = 0.0;
  for (const Node& node : nodes_) total += node.effective_gflops();
  return total;
}

std::size_t Cluster::up_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& n) { return n.state().up; }));
}

Cluster ClusterBuilder::homogeneous(std::size_t n, double peak_gflops,
                                    double memory_mib, double bandwidth_mbps,
                                    double latency_s,
                                    const std::string& arch) {
  std::vector<Node> nodes;
  std::vector<Link> links;
  nodes.reserve(n);
  links.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeSpec spec;
    spec.id = static_cast<NodeId>(i);
    spec.name = arch + "-" + std::to_string(i);
    spec.peak_gflops = peak_gflops;
    spec.memory_mib = memory_mib;
    spec.arch = arch;
    nodes.emplace_back(std::move(spec));
    links.emplace_back(LinkSpec{bandwidth_mbps, latency_s});
  }
  return Cluster(std::move(nodes), std::move(links), SwitchSpec{});
}

Cluster ClusterBuilder::heterogeneous(std::size_t n, util::Rng& rng,
                                      double base_gflops, double memory_mib,
                                      double bandwidth_mbps, double latency_s,
                                      double spread, const std::string& arch) {
  // Log-normal multiplier with unit median and coefficient of variation
  // approximately `spread`.
  const double sigma = std::sqrt(std::log1p(spread * spread));
  std::vector<Node> nodes;
  std::vector<Link> links;
  nodes.reserve(n);
  links.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeSpec spec;
    spec.id = static_cast<NodeId>(i);
    spec.name = arch + "-" + std::to_string(i);
    spec.peak_gflops = base_gflops * rng.lognormal(0.0, sigma);
    spec.memory_mib = memory_mib * rng.lognormal(0.0, sigma * 0.5);
    spec.arch = arch;
    nodes.emplace_back(std::move(spec));
    links.emplace_back(LinkSpec{bandwidth_mbps, latency_s});
  }
  SwitchSpec fabric;
  fabric.forwarding_latency_s = 50e-6;  // commodity Ethernet switch
  return Cluster(std::move(nodes), std::move(links), fabric);
}

Cluster ClusterBuilder::for_spread(std::size_t n, double spread,
                                   util::Rng rng) {
  if (spread > 0.0)
    return heterogeneous(n, rng, 0.5, 512.0, 100.0, 150e-6, spread);
  return homogeneous(n);
}

Cluster ClusterBuilder::federated(std::size_t sites,
                                  std::size_t nodes_per_site,
                                  double peak_gflops,
                                  double lan_bandwidth_mbps,
                                  double wan_bandwidth_mbps,
                                  double wan_latency_s) {
  std::vector<Node> nodes;
  std::vector<Link> links;
  nodes.reserve(sites * nodes_per_site);
  links.reserve(sites * nodes_per_site);
  for (std::size_t s = 0; s < sites; ++s) {
    for (std::size_t i = 0; i < nodes_per_site; ++i) {
      NodeSpec spec;
      spec.id = static_cast<NodeId>(nodes.size());
      spec.name =
          "site" + std::to_string(s) + "-node" + std::to_string(i);
      spec.peak_gflops = peak_gflops;
      spec.site = static_cast<int>(s);
      nodes.emplace_back(std::move(spec));
      links.emplace_back(LinkSpec{lan_bandwidth_mbps, 50e-6});
    }
  }
  Cluster cluster(std::move(nodes), std::move(links), SwitchSpec{});
  cluster.set_wan(Link(LinkSpec{wan_bandwidth_mbps, wan_latency_s}));
  return cluster;
}

}  // namespace pragma::grid
