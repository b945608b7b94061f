// The composite work grid: the domain-based view of a SAMR hierarchy.
//
// All of the paper's partitioners are *domain-based*: they partition the
// physical (level-0) domain, and every refinement level above a region
// follows that region's owner.  The WorkGrid rasterizes a GridHierarchy
// onto a coarse lattice of grain cells (grain^3 level-0 cells each) and
// records, per grain cell:
//   * the computational work (cell-updates per coarse step, MIT-weighted),
//   * which levels are present (for communication weighting),
//   * the storage volume (for migration cost),
// and the prefix sums of the work along its space-filling curve, the view
// every splitter divides.  Partitioners then assign each grain cell to a
// processor.
//
// A grid is always rasterized whole from its hierarchy.  Per-box
// contributions are integer-valued by construction (overlap volumes times
// integer powers of the refinement ratio).  A double holds every integer
// below 2^53 exactly, so while a grid's total work stays below that bound
// every sum of its work terms is exact and any summation order gives the
// same bits (work_sums_exact()).  Deep grids exceed the bound: at ratio 2 a
// level-l cell carries 2^(4l) work, 2^52 at level 13.  Past it sums round,
// and the code that regroups work sums (total_work, ExecutionModel::map)
// keeps the lattice-order fold instead.  reference_build keeps the scalar
// per-box kernel around as the equivalence oracle.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "pragma/amr/hierarchy.hpp"
#include "pragma/partition/prefix_sums.hpp"
#include "pragma/partition/sfc.hpp"

namespace pragma::partition {

/// 2^53: a double holds every integer below it exactly, so a sum of
/// non-negative integer-valued terms that stays below it is exact in any
/// grouping.
inline constexpr double kExactSumBound = 9007199254740992.0;

class WorkGrid {
 public:
  /// Rasterize `hierarchy` at the given grain (level-0 cells per grain-cell
  /// edge) using the given curve for the 1-D ordering.  `threads` > 1
  /// splits the per-box rasterization across the shared thread pool with
  /// per-thread partial grids merged in box order; 1 is the serial path.
  /// Throws std::invalid_argument when grain <= 0 or a box lies outside
  /// its level's domain (GridHierarchy::in_level_domain).
  WorkGrid(const amr::GridHierarchy& hierarchy, int grain,
           CurveKind curve = CurveKind::kHilbert, int threads = 1);

  /// Bitwise equivalence oracle: the same grid built with the pre-SIMD
  /// scalar per-box kernel (serial).  Tests and the perf-smoke bench gate
  /// the vectorized constructor against this.
  [[nodiscard]] static WorkGrid reference_build(
      const amr::GridHierarchy& hierarchy, int grain,
      CurveKind curve = CurveKind::kHilbert);

  [[nodiscard]] int grain() const { return grain_; }
  [[nodiscard]] amr::IntVec3 lattice_dims() const { return dims_; }
  [[nodiscard]] std::size_t cell_count() const { return work_.size(); }
  [[nodiscard]] int num_levels() const { return num_levels_; }
  [[nodiscard]] int ratio() const { return ratio_; }
  [[nodiscard]] CurveKind curve() const { return curve_; }

  /// Work of grain cell `c` (linear index).
  [[nodiscard]] double work(std::size_t c) const { return work_[c]; }
  /// Total work over the grid.
  [[nodiscard]] double total_work() const { return total_work_; }
  /// True when the total work is below kExactSumBound: every work term is
  /// an integer, so every sum of them (per processor, per SFC range) is
  /// then exact, and prefix-sum differences equal lattice-order folds.
  [[nodiscard]] bool work_sums_exact() const {
    return total_work_ < kExactSumBound;
  }
  /// Bitmask of levels present in grain cell `c` (bit l = level l).
  [[nodiscard]] std::uint32_t levels_present(std::size_t c) const {
    return levels_[c];
  }
  /// The full per-cell level-mask array (ExecutionModel::map's sweep
  /// streams it; element c == levels_present(c)).
  [[nodiscard]] const std::vector<std::uint32_t>& levels() const {
    return levels_;
  }
  /// Storage volume of grain cell `c` in cell-equivalents across levels.
  [[nodiscard]] double storage(std::size_t c) const { return storage_[c]; }

  /// SFC visit order: order()[rank] = linear cell index.  The vector is
  /// shared with the process-wide curve cache (see curve_order_shared).
  [[nodiscard]] const std::vector<std::uint32_t>& order() const {
    return *order_;
  }
  /// Prefix sums of the work in SFC order (work(order()[k]) for rank k,
  /// the 1-D sequence the splitters divide), built once so every splitter
  /// invocation on this grid shares the same O(1)-range-sum view.  The
  /// sequence itself is not kept.
  [[nodiscard]] const PrefixSums& prefix_sums() const { return prefix_; }

  /// Linear index from lattice coordinates.
  [[nodiscard]] std::size_t linear(amr::IntVec3 p) const {
    return static_cast<std::size_t>(p.x) +
           static_cast<std::size_t>(dims_.x) *
               (static_cast<std::size_t>(p.y) +
                static_cast<std::size_t>(dims_.y) *
                    static_cast<std::size_t>(p.z));
  }
  /// Lattice coordinates from a linear index.
  [[nodiscard]] amr::IntVec3 coords(std::size_t c) const;

  /// The level-0 box covered by grain cell `c`.
  [[nodiscard]] amr::Box cell_box(std::size_t c) const;

 private:
  WorkGrid(const amr::GridHierarchy& hierarchy, int grain, CurveKind curve,
           int threads, bool reference_kernels);

  int grain_;
  amr::IntVec3 dims_{0, 0, 0};
  int num_levels_ = 1;
  int ratio_ = 2;
  CurveKind curve_ = CurveKind::kHilbert;
  std::vector<double> work_;
  std::vector<std::uint32_t> levels_;
  std::vector<double> storage_;
  std::shared_ptr<const std::vector<std::uint32_t>> order_;
  PrefixSums prefix_;
  double total_work_ = 0.0;
};

/// Thread-safe LRU cache of immutable WorkGrids keyed by (snapshot index,
/// grain, curve).  It only shares grids across runs over one trace:
/// `Runtime` keeps one per trace for the replays it schedules, and Table 5
/// one for its processor-count sweep.  A single replay keeps the few grids
/// it uses itself and asks the cache for each key at most once.  The entry
/// count is bounded (least-recently-used grids are evicted) so long
/// multi-run services do not grow without limit.
class WorkGridCache {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 64;

  explicit WorkGridCache(std::size_t max_entries = kDefaultMaxEntries);

  /// Return the cached grid for (`snapshot`, `grain`, `curve`), building it
  /// from `hierarchy` on first request.  The caller must use a stable
  /// snapshot index <-> hierarchy mapping for the lifetime of the cache.
  [[nodiscard]] std::shared_ptr<const WorkGrid> get_or_build(
      std::size_t snapshot, const amr::GridHierarchy& hierarchy, int grain,
      CurveKind curve, int threads = 1);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  void clear();

  /// Monotonic counters since construction (also exported through the obs
  /// metrics registry as partition.workgrid_cache.*).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Key {
    std::size_t snapshot;
    int grain;
    CurveKind curve;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t h = static_cast<std::uint64_t>(key.snapshot);
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(key.grain);
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(key.curve);
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct Entry {
    std::shared_ptr<const WorkGrid> grid;
    std::list<Key>::iterator lru;
  };

  /// Callers hold the lock.  find_locked refreshes recency on hit;
  /// insert_locked evicts the LRU tail past the cap.
  [[nodiscard]] std::shared_ptr<const WorkGrid> find_locked(const Key& key);
  std::shared_ptr<const WorkGrid> insert_locked(
      const Key& key, std::shared_ptr<const WorkGrid> grid);

  const std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> cache_;
  /// Most-recently-used at the front.
  std::list<Key> lru_;
  Stats stats_;
};

/// The grid of `hierarchy`, snapshot `snapshot` of a trace, at (`grain`,
/// `curve`): `cache`'s when a caller shares one across runs, else a fresh
/// build.
[[nodiscard]] std::shared_ptr<const WorkGrid> shared_or_built(
    WorkGridCache* cache, std::size_t snapshot,
    const amr::GridHierarchy& hierarchy, int grain, CurveKind curve,
    int threads = 1);

}  // namespace pragma::partition
