// The adaptive meta-partitioner (Section 4).
//
// "Based on the octant state, the most appropriate partitioning technique
//  is selected from a database of available partitioning techniques,
//  configured with appropriate parameters such as partitioning granularity
//  and threshold, and then invoked to partition the SAMR grid hierarchy."
//
// Selection is policy-driven: the classifier produces the octant, the
// policy base maps octants to partitioners (Table 2), and the selected
// partitioner from the suite is invoked.  Hysteresis avoids thrashing when
// the application sits near an octant boundary.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pragma/octant/octant.hpp"
#include "pragma/partition/partitioner.hpp"
#include "pragma/policy/policy.hpp"

namespace pragma::core {

struct MetaPartitionerConfig {
  octant::OctantThresholds thresholds;
  partition::PartitionerOptions partitioner_options;
  /// Keep the current partitioner unless the selection has differed for
  /// this many consecutive regrids (1 = switch immediately).
  int hysteresis = 1;
};

/// One selection record.
struct Selection {
  std::size_t snapshot = 0;
  octant::OctantState state;
  std::string partitioner;
  /// Policy-imposed grain override (0 = the partitioner's preferred grain).
  int grain = 0;
  bool switched = false;
};

class MetaPartitioner {
 public:
  /// Uses `policies` to map octants to partitioner names; the policy base
  /// must contain the octant policies (see policy::install_octant_policies).
  MetaPartitioner(const policy::PolicyBase& policies,
                  MetaPartitionerConfig config = {});

  /// Classify snapshot `i` and select a partitioner.
  const partition::Partitioner& select(const amr::AdaptationTrace& trace,
                                       std::size_t i);
  /// Select a partitioner for snapshot `i`, whose classification is
  /// `state` (a caller that selects repeatedly for one snapshot classifies
  /// it once).
  const partition::Partitioner& select(const octant::OctantState& state,
                                       std::size_t i);

  /// Name of the currently selected partitioner.
  [[nodiscard]] const std::string& current() const { return current_; }
  /// Grain the policy configured for the current selection (0 = use the
  /// partitioner's preferred grain).  "Configured with appropriate
  /// parameters such as partitioning granularity" — policies may attach a
  /// "grain" value to their action.
  [[nodiscard]] int current_grain() const { return current_grain_; }
  [[nodiscard]] const std::vector<Selection>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t switch_count() const { return switches_; }
  [[nodiscard]] const octant::OctantClassifier& classifier() const {
    return classifier_;
  }

  /// Direct access to a suite member by name (throws on unknown name).
  [[nodiscard]] const partition::Partitioner& by_name(
      const std::string& name) const;

 private:
  const policy::PolicyBase& policies_;
  MetaPartitionerConfig config_;
  octant::OctantClassifier classifier_;
  std::vector<std::unique_ptr<partition::Partitioner>> suite_;
  std::string current_;
  int current_grain_ = 0;
  std::string pending_;
  int pending_count_ = 0;
  std::size_t switches_ = 0;
  std::vector<Selection> history_;
};

}  // namespace pragma::core
