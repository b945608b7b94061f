// Cluster topology: a set of nodes attached to a central switch.
//
// This models both testbeds in the paper — the NPACI IBM SP2 (Blue Horizon)
// partition used for the Table 4 experiments and the 32-node fast-Ethernet
// Linux cluster used for Table 5 — by varying node/link specifications and
// the heterogeneity spread.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pragma/grid/link.hpp"
#include "pragma/grid/node.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::grid {

/// Switch fabric model: a per-message forwarding overhead.
struct SwitchSpec {
  double forwarding_latency_s = 20e-6;
};

/// A star-topology cluster: node[i] connects to the switch via link[i].
/// Federated ("grid") configurations group nodes into sites; transfers
/// between sites additionally traverse a shared WAN link.
class Cluster {
 public:
  Cluster() = default;
  Cluster(std::vector<Node> nodes, std::vector<Link> links, SwitchSpec fabric);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Attach a WAN link used by all inter-site transfers.
  void set_wan(Link wan) {
    wan_ = wan;
    has_wan_ = true;
  }
  [[nodiscard]] bool federated() const { return has_wan_; }
  [[nodiscard]] Link& wan() { return wan_; }
  [[nodiscard]] const Link& wan() const { return wan_; }
  /// Site of a node (0 when not federated).
  [[nodiscard]] int site_of(NodeId id) const {
    return nodes_.at(id).spec().site;
  }
  [[nodiscard]] bool same_site(NodeId a, NodeId b) const {
    return site_of(a) == site_of(b);
  }

  [[nodiscard]] Node& node(NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] Link& uplink(NodeId id) { return links_.at(id); }
  [[nodiscard]] const Link& uplink(NodeId id) const { return links_.at(id); }
  [[nodiscard]] const SwitchSpec& fabric() const { return fabric_; }

  [[nodiscard]] std::vector<Node>& nodes() { return nodes_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// Seconds to transfer `bytes` from `src` to `dst` (two links + switch).
  /// Transfers to self are free.
  [[nodiscard]] double transfer_time(NodeId src, NodeId dst,
                                     double bytes) const;

  /// Bottleneck application-visible bandwidth between two nodes (bytes/s).
  [[nodiscard]] double path_bandwidth(NodeId src, NodeId dst) const;

  /// Sum of effective node speeds (Gflop/s) over nodes that are up.
  [[nodiscard]] double total_effective_gflops() const;

  /// Number of nodes currently up.
  [[nodiscard]] std::size_t up_count() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  SwitchSpec fabric_;
  Link wan_;
  bool has_wan_ = false;
};

/// Convenience builders for the two experimental testbeds.
class ClusterBuilder {
 public:
  /// Homogeneous cluster: `n` identical nodes.  Defaults approximate one
  /// Blue Horizon POWER3 node (per-CPU) with a high-speed interconnect.
  static Cluster homogeneous(std::size_t n, double peak_gflops = 1.5,
                             double memory_mib = 1024.0,
                             double bandwidth_mbps = 1000.0,
                             double latency_s = 20e-6,
                             const std::string& arch = "sp2");

  /// Heterogeneous commodity cluster: node speeds and memories drawn
  /// log-normally around the base values with the given coefficient of
  /// variation (spread).  Models the paper's Linux workstation cluster.
  static Cluster heterogeneous(std::size_t n, util::Rng& rng,
                               double base_gflops = 0.5,
                               double memory_mib = 512.0,
                               double bandwidth_mbps = 100.0,
                               double latency_s = 150e-6,
                               double spread = 0.35,
                               const std::string& arch = "linux-cluster");

  /// The machine a run describes by its node-speed spread: heterogeneous
  /// commodity nodes (the defaults above) drawn from `rng` when spread > 0,
  /// else homogeneous(n).
  static Cluster for_spread(std::size_t n, double spread, util::Rng rng);

  /// Federated grid: `sites` homogeneous clusters of `nodes_per_site`
  /// nodes each, joined by a shared WAN link (default: 20 Mb/s with 30 ms
  /// latency — a wide-area path of the paper's era).  Node i belongs to
  /// site i / nodes_per_site.
  static Cluster federated(std::size_t sites, std::size_t nodes_per_site,
                           double peak_gflops = 1.0,
                           double lan_bandwidth_mbps = 1000.0,
                           double wan_bandwidth_mbps = 20.0,
                           double wan_latency_s = 30e-3);
};

}  // namespace pragma::grid
