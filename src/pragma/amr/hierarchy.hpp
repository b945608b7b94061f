// SAMR grid hierarchy: levels of patch boxes with space-time refinement.
//
// Level 0 covers the whole base domain; level l+1 boxes live in level-(l+1)
// index space (coordinates are level-0 coordinates multiplied by the
// cumulative refinement ratio).  With factor-r space-time refinement and
// multiple independent timesteps (MIT), a level-l cell is advanced r^l times
// per coarse timestep — the basis of all workload computations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pragma/amr/box.hpp"

namespace pragma::amr {

/// One rectangular patch of a level.
struct Patch {
  Box box;
  int level = 0;
};

/// One refinement level: a disjoint set of boxes in this level's index
/// space.
struct GridLevel {
  int level = 0;
  std::vector<Box> boxes;

  [[nodiscard]] std::int64_t cell_count() const { return total_volume(boxes); }
  [[nodiscard]] std::size_t box_count() const { return boxes.size(); }
};

/// The full hierarchy plus its static configuration.
class GridHierarchy {
 public:
  GridHierarchy() = default;
  /// `base_dims` is the level-0 domain; `ratio` the per-level space-time
  /// refinement factor; `max_levels` counts level 0.
  GridHierarchy(IntVec3 base_dims, int ratio, int max_levels);

  [[nodiscard]] IntVec3 base_dims() const { return base_dims_; }
  [[nodiscard]] int ratio() const { return ratio_; }
  [[nodiscard]] int max_levels() const { return max_levels_; }
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }

  [[nodiscard]] const GridLevel& level(int l) const { return levels_.at(l); }
  [[nodiscard]] const std::vector<GridLevel>& levels() const {
    return levels_;
  }

  /// Domain box of level l in level-l index space.
  [[nodiscard]] Box level_domain(int l) const;

  /// True when `box` is empty or lies inside level_domain(l).  Computed in
  /// 64 bits, so it also holds for levels whose domain overflows an int.
  [[nodiscard]] bool in_level_domain(int l, const Box& box) const;

  /// Cumulative refinement ratio of level l relative to level 0 (r^l).
  [[nodiscard]] std::int64_t cumulative_ratio(int l) const;

  /// Replace the boxes of level l (creating intermediate levels if needed).
  void set_level_boxes(int l, std::vector<Box> boxes);

  /// All patches across all levels.
  [[nodiscard]] std::vector<Patch> all_patches() const;

  /// Total cells summed over levels.
  [[nodiscard]] std::int64_t total_cells() const;

  /// Total computational work per coarse timestep in cell-updates, with MIT
  /// substepping: sum over levels of cells(l) * r^l.
  [[nodiscard]] double total_work() const;

  /// Work of a single box at a given level (cells * r^l).
  [[nodiscard]] double box_work(const Box& box, int l) const;

  /// Cell-updates per coarse step if the entire domain ran at the finest
  /// level's resolution (the non-adaptive alternative).
  [[nodiscard]] double uniform_fine_work() const;

  /// AMR efficiency: fraction of uniform-fine work avoided by adaptivity,
  /// i.e. 1 - total_work / uniform_fine_work.  The paper's Table 4 reports
  /// this around 98.8% for the RM3D runs.
  [[nodiscard]] double amr_efficiency() const;

  /// Short human-readable summary ("L0: 4 boxes / 131072 cells; ...").
  [[nodiscard]] std::string summary() const;

 private:
  IntVec3 base_dims_{0, 0, 0};
  int ratio_ = 2;
  int max_levels_ = 1;
  std::vector<GridLevel> levels_;
};

}  // namespace pragma::amr
