#include "pragma/amr/hierarchy.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace pragma::amr {

GridHierarchy::GridHierarchy(IntVec3 base_dims, int ratio, int max_levels)
    : base_dims_(base_dims), ratio_(ratio), max_levels_(max_levels) {
  if (ratio < 2) throw std::invalid_argument("GridHierarchy: ratio < 2");
  if (max_levels < 1)
    throw std::invalid_argument("GridHierarchy: max_levels < 1");
  GridLevel base;
  base.level = 0;
  base.boxes.push_back(Box::from_dims(base_dims));
  levels_.push_back(std::move(base));
}

Box GridHierarchy::level_domain(int l) const {
  const auto r = static_cast<int>(cumulative_ratio(l));
  return Box::from_dims(base_dims_ * r);
}

bool GridHierarchy::in_level_domain(int l, const Box& box) const {
  if (box.empty()) return true;
  for (int axis = 0; axis < 3; ++axis) {
    // The level's extent, saturated once it passes every int coordinate.
    std::int64_t extent = base_dims_[axis];
    for (int i = 0; i < l && extent <= std::numeric_limits<int>::max(); ++i)
      extent *= ratio_;
    if (box.lo()[axis] < 0 || box.hi()[axis] > extent) return false;
  }
  return true;
}

std::int64_t GridHierarchy::cumulative_ratio(int l) const {
  std::int64_t r = 1;
  for (int i = 0; i < l; ++i) r *= ratio_;
  return r;
}

void GridHierarchy::set_level_boxes(int l, std::vector<Box> boxes) {
  if (l <= 0 || l >= max_levels_)
    throw std::invalid_argument("set_level_boxes: bad level");
  while (static_cast<int>(levels_.size()) <= l) {
    GridLevel empty;
    empty.level = static_cast<int>(levels_.size());
    levels_.push_back(std::move(empty));
  }
  levels_[static_cast<std::size_t>(l)].boxes = std::move(boxes);
  // Drop trailing empty levels so num_levels() reflects reality.
  while (levels_.size() > 1 && levels_.back().boxes.empty())
    levels_.pop_back();
}

std::vector<Patch> GridHierarchy::all_patches() const {
  std::vector<Patch> patches;
  for (const GridLevel& level : levels_)
    for (const Box& box : level.boxes)
      patches.push_back(Patch{box, level.level});
  return patches;
}

std::int64_t GridHierarchy::total_cells() const {
  std::int64_t total = 0;
  for (const GridLevel& level : levels_) total += level.cell_count();
  return total;
}

double GridHierarchy::total_work() const {
  double total = 0.0;
  for (const GridLevel& level : levels_)
    total += static_cast<double>(level.cell_count()) *
             static_cast<double>(cumulative_ratio(level.level));
  return total;
}

double GridHierarchy::box_work(const Box& box, int l) const {
  return static_cast<double>(box.volume()) *
         static_cast<double>(cumulative_ratio(l));
}

double GridHierarchy::uniform_fine_work() const {
  const int finest = max_levels_ - 1;
  const auto r = static_cast<double>(cumulative_ratio(finest));
  const double fine_cells =
      static_cast<double>(Box::from_dims(base_dims_).volume()) * r * r * r;
  return fine_cells * r;  // every fine cell advances r^finest substeps
}

double GridHierarchy::amr_efficiency() const {
  const double uniform = uniform_fine_work();
  if (uniform <= 0.0) return 0.0;
  return 1.0 - total_work() / uniform;
}

std::string GridHierarchy::summary() const {
  std::ostringstream os;
  for (const GridLevel& level : levels_) {
    if (level.level > 0) os << "; ";
    os << 'L' << level.level << ": " << level.box_count() << " boxes / "
       << level.cell_count() << " cells";
  }
  return os.str();
}

}  // namespace pragma::amr
