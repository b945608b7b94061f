#include "pragma/amr/trace.hpp"

#include <algorithm>
#include <cmath>

namespace pragma::amr {

void AdaptationTrace::add(Snapshot snapshot) {
  snapshots_.push_back(std::move(snapshot));
}

std::size_t AdaptationTrace::index_for_step(int step) const {
  std::size_t index = 0;
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (snapshots_[i].step <= step) index = i;
  }
  return index;
}

int AdaptationTrace::steps_covered(std::size_t i) const {
  if (i + 1 < snapshots_.size())
    return snapshots_[i + 1].step - snapshots_[i].step;
  if (i > 0) return snapshots_[i].step - snapshots_[i - 1].step;
  return 1;
}

double AdaptationTrace::churn(std::size_t i) const {
  if (i == 0 || i >= snapshots_.size()) return 0.0;
  const GridHierarchy& prev = snapshots_[i - 1].hierarchy;
  const GridHierarchy& curr = snapshots_[i].hierarchy;
  std::int64_t diff = 0;
  std::int64_t total = 0;
  const int levels = std::max(prev.num_levels(), curr.num_levels());
  for (int l = 1; l < levels; ++l) {
    const std::vector<Box> empty;
    const std::vector<Box>& a =
        l < prev.num_levels() ? prev.level(l).boxes : empty;
    const std::vector<Box>& b =
        l < curr.num_levels() ? curr.level(l).boxes : empty;
    diff += symmetric_difference_volume(a, b);
    total += total_volume(a) + total_volume(b);
  }
  if (total == 0) return 0.0;
  // Normalize by the mean refined volume of the two snapshots.
  return static_cast<double>(diff) / (static_cast<double>(total) / 2.0);
}

double AdaptationTrace::scatter(std::size_t i) const {
  if (i >= snapshots_.size()) return 0.0;
  const GridHierarchy& h = snapshots_[i].hierarchy;
  if (h.num_levels() < 2) return 0.0;
  // Use the deepest populated refined level; fall back one level when the
  // finest is empty.
  int level = h.num_levels() - 1;
  while (level > 0 && h.level(level).boxes.empty()) --level;
  if (level == 0) return 0.0;
  const std::vector<Box>& boxes = h.level(level).boxes;

  // Fill factor: refined volume / its bounding-box volume.  A single
  // compact region fills its bounding box; scattered blobs do not.
  const Box bound = bounding_box(boxes);
  const double fill = bound.empty()
                          ? 1.0
                          : static_cast<double>(total_volume(boxes)) /
                                static_cast<double>(bound.volume());

  // Fragment factor: many disjoint boxes covering little volume each.
  const double boxes_norm =
      1.0 - 1.0 / std::sqrt(static_cast<double>(boxes.size()));

  const double scatter = 0.6 * (1.0 - fill) + 0.4 * boxes_norm;
  return std::clamp(scatter, 0.0, 1.0);
}

double AdaptationTrace::comm_comp_ratio(std::size_t i) const {
  if (i >= snapshots_.size()) return 0.0;
  const GridHierarchy& h = snapshots_[i].hierarchy;
  double surface = 0.0;
  double volume = 0.0;
  for (const GridLevel& level : h.levels()) {
    const auto substeps =
        static_cast<double>(h.cumulative_ratio(level.level));
    for (const Box& box : level.boxes) {
      surface += static_cast<double>(box.surface_area()) * substeps;
      volume += static_cast<double>(box.volume()) * substeps;
    }
  }
  if (volume <= 0.0) return 0.0;
  // Scale by the base domain's own surface/volume so the metric is
  // resolution-independent: ratio 1 == "as communication-bound as a single
  // undecomposed domain", larger == more fragmented/communication-heavy.
  const Box domain = Box::from_dims(h.base_dims());
  const double domain_ratio =
      static_cast<double>(domain.surface_area()) /
      static_cast<double>(domain.volume());
  return (surface / volume) / domain_ratio;
}

}  // namespace pragma::amr
