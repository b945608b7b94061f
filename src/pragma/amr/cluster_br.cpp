#include "pragma/amr/cluster_br.hpp"

#include <algorithm>
#include <cstdlib>

namespace pragma::amr {

namespace {

/// Find a zero-plane (hole) in the signature strictly inside the box;
/// returns the cut coordinate or -1.
int find_hole(const std::vector<std::int64_t>& sig, int lo, int min_width) {
  const int n = static_cast<int>(sig.size());
  for (int i = min_width; i <= n - min_width; ++i)
    if (sig[static_cast<std::size_t>(i)] == 0) return lo + i;
  return -1;
}

/// Find the strongest inflection point (sign change of the discrete second
/// derivative with maximal jump) respecting min_width; returns cut or -1.
int find_inflection(const std::vector<std::int64_t>& sig, int lo,
                    int min_width) {
  const int n = static_cast<int>(sig.size());
  if (n < 2 * min_width) return -1;
  std::vector<std::int64_t> lap(static_cast<std::size_t>(n), 0);
  for (int i = 1; i + 1 < n; ++i)
    lap[static_cast<std::size_t>(i)] =
        sig[static_cast<std::size_t>(i - 1)] -
        2 * sig[static_cast<std::size_t>(i)] +
        sig[static_cast<std::size_t>(i + 1)];
  int best = -1;
  std::int64_t best_jump = 0;
  for (int i = std::max(1, min_width); i <= n - min_width && i + 1 < n;
       ++i) {
    const std::int64_t a = lap[static_cast<std::size_t>(i)];
    const std::int64_t b = lap[static_cast<std::size_t>(i + 1)];
    if ((a < 0 && b > 0) || (a > 0 && b < 0)) {
      const std::int64_t jump = std::llabs(a - b);
      if (jump > best_jump) {
        best_jump = jump;
        best = i + 1;
      }
    }
  }
  return best >= 0 ? lo + best : -1;
}

void cluster_recursive(const FlagField& flags, const Box& region,
                       const ClusterOptions& options, int depth,
                       std::vector<Box>& out) {
  const FlagField::RegionScan node = flags.scan(region);
  const Box& bound = node.bound;
  if (bound.empty()) return;

  const double efficiency =
      static_cast<double>(node.count) / static_cast<double>(bound.volume());

  const IntVec3 e = bound.extent();
  const bool splittable = e.x >= 2 * options.min_width ||
                          e.y >= 2 * options.min_width ||
                          e.z >= 2 * options.min_width;

  if (efficiency >= options.efficiency || !splittable ||
      depth >= options.max_depth) {
    out.push_back(bound);
    return;
  }

  // Try holes on every splittable axis (longest first), then inflections.
  int axes[3] = {0, 1, 2};
  std::sort(std::begin(axes), std::end(axes), [&](int a, int b) {
    return bound.extent()[a] > bound.extent()[b];
  });

  auto recurse_split = [&](int axis, int cut) {
    const auto halves = bound.split(axis, cut);
    cluster_recursive(flags, halves[0], options, depth + 1, out);
    cluster_recursive(flags, halves[1], options, depth + 1, out);
  };

  for (int axis : axes) {
    if (bound.extent()[axis] < 2 * options.min_width) continue;
    const int cut = find_hole(node.signatures[axis], bound.lo()[axis],
                              options.min_width);
    if (cut >= 0) {
      recurse_split(axis, cut);
      return;
    }
  }
  for (int axis : axes) {
    if (bound.extent()[axis] < 2 * options.min_width) continue;
    const int cut = find_inflection(node.signatures[axis], bound.lo()[axis],
                                    options.min_width);
    if (cut >= 0) {
      recurse_split(axis, cut);
      return;
    }
  }
  // Fall back to a midpoint split of the longest splittable axis.
  const int axis = axes[0];
  if (bound.extent()[axis] >= 2 * options.min_width) {
    recurse_split(axis, bound.lo()[axis] + bound.extent()[axis] / 2);
    return;
  }
  out.push_back(bound);
}

}  // namespace

std::vector<Box> cluster_flags(const FlagField& flags, const Box& region,
                               const ClusterOptions& options) {
  std::vector<Box> out;
  cluster_recursive(flags, region, options, 0, out);
  if (options.max_box_cells > 0) {
    std::vector<Box> chopped;
    for (const Box& box : out) {
      auto pieces = box.chop(options.max_box_cells);
      chopped.insert(chopped.end(), pieces.begin(), pieces.end());
    }
    out = std::move(chopped);
  }
  return out;
}

double clustering_efficiency(const FlagField& flags,
                             const std::vector<Box>& boxes) {
  std::int64_t volume = 0;
  std::int64_t flagged = 0;
  for (const Box& box : boxes) {
    volume += box.volume();
    flagged += flags.count_in(box);
  }
  return volume == 0 ? 1.0
                     : static_cast<double>(flagged) /
                           static_cast<double>(volume);
}

}  // namespace pragma::amr
