// Adaptation traces: snapshots of the SAMR grid hierarchy at regrid steps.
//
// "The adaptive behavior of the application was captured in an adaptation
//  trace generated using a single processor run.  The adaptation trace
//  contains snap-shots of the SAMR grid hierarchy at each regrid step."
//
// The trace is the interface between the application emulator and both the
// octant classifier (application characterization) and the partitioner
// evaluation harness (Tables 2-4).
#pragma once

#include <cstddef>
#include <vector>

#include "pragma/amr/hierarchy.hpp"

namespace pragma::amr {

/// One regrid-step snapshot.
struct Snapshot {
  int step = 0;                ///< coarse time-step index
  GridHierarchy hierarchy;     ///< grid hierarchy right after regridding
};

/// A sequence of snapshots plus derived structural metrics.
class AdaptationTrace {
 public:
  void add(Snapshot snapshot);

  [[nodiscard]] std::size_t size() const { return snapshots_.size(); }
  [[nodiscard]] bool empty() const { return snapshots_.empty(); }
  [[nodiscard]] const Snapshot& at(std::size_t i) const {
    return snapshots_.at(i);
  }
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const {
    return snapshots_;
  }

  /// Index of the snapshot in effect at coarse step `step` (the last
  /// snapshot with snapshot.step <= step).
  [[nodiscard]] std::size_t index_for_step(int step) const;

  /// Refinement churn between snapshot i-1 and i: the symmetric-difference
  /// volume of refined regions across all levels, normalized by the union
  /// of refined volumes (0 = static refinement, ~2 = complete turnover).
  /// Returns 0 for i == 0.
  [[nodiscard]] double churn(std::size_t i) const;

  /// Adaptation scatter of snapshot i: how fragmented the refined regions
  /// are.  Defined as 1 - (volume of the largest connected refined
  /// component's bounding box share); practically we use box-count and
  /// bounding-box dispersion of the finest populated level, normalized to
  /// [0, 1] (0 = one compact region, 1 = many widely spread regions).
  [[nodiscard]] double scatter(std::size_t i) const;

  /// Communication-to-computation structural ratio of snapshot i: total
  /// patch surface (ghost exchange volume) over total patch work, scaled by
  /// the domain's own surface/volume ratio so that values near/above ~1 mean
  /// communication-dominated.
  [[nodiscard]] double comm_comp_ratio(std::size_t i) const;

 private:
  std::vector<Snapshot> snapshots_;
};

}  // namespace pragma::amr
