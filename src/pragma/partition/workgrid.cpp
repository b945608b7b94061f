#include "pragma/partition/workgrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/util/arena.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::partition {

namespace {
/// One rasterization unit: a box with its level's precomputed weights.
struct BoxTask {
  const amr::Box* box;
  double work_per_l0;
  double cells_per_l0;
  int rr;
  int level;
};

/// Per-box weights of level l (MIT substepping: a level-l cell advances
/// r^l times per coarse step).
BoxTask make_task(const amr::Box& box, int level, int ratio) {
  std::int64_t rr = 1;
  for (int i = 0; i < level; ++i) rr *= ratio;
  const auto r = static_cast<double>(rr);
  const double cells_per_l0 = r * r * r;        // level-l cells per L0 cell
  const double work_per_l0 = cells_per_l0 * r;  // MIT substeps
  return {&box, work_per_l0, cells_per_l0, static_cast<int>(rr), level};
}

/// Reference scalar kernel (the pre-SIMD implementation): rasterize one box
/// onto (work, storage) and set its level's bit in the level masks via
/// per-cell Box intersections.  Kept as the bitwise oracle for
/// rasterize_box below.
void reference_rasterize_box(const BoxTask& task, int grain,
                             amr::IntVec3 dims, double* work, double* storage,
                             std::uint32_t* levels) {
  const amr::Box in_l0 = task.box->coarsen(task.rr);
  const amr::IntVec3 glo{in_l0.lo().x / grain, in_l0.lo().y / grain,
                         in_l0.lo().z / grain};
  const amr::IntVec3 ghi{(in_l0.hi().x + grain - 1) / grain,
                         (in_l0.hi().y + grain - 1) / grain,
                         (in_l0.hi().z + grain - 1) / grain};
  for (int gz = glo.z; gz < ghi.z; ++gz)
    for (int gy = glo.y; gy < ghi.y; ++gy)
      for (int gx = glo.x; gx < ghi.x; ++gx) {
        const amr::Box cell({gx * grain, gy * grain, gz * grain},
                            {(gx + 1) * grain, (gy + 1) * grain,
                             (gz + 1) * grain});
        const auto overlap =
            static_cast<double>(cell.intersection(in_l0).volume());
        if (overlap <= 0.0) continue;
        const std::size_t c =
            static_cast<std::size_t>(gx) +
            static_cast<std::size_t>(dims.x) *
                (static_cast<std::size_t>(gy) +
                 static_cast<std::size_t>(dims.y) *
                     static_cast<std::size_t>(gz));
        work[c] += overlap * task.work_per_l0;
        storage[c] += overlap * task.cells_per_l0;
        levels[c] |= 1u << task.level;
      }
}

/// Vectorizable kernel: the box's per-axis overlap lengths are materialized
/// once into arena scratch, then each lattice row is updated with a
/// branchless stride-1 loop (no Box construction, no intersection test —
/// every cell in the coarsened footprint overlaps by construction).  All
/// per-cell contributions are products of exact small integers, so the
/// factored form (ox * (oy*oz*weight)) produces bitwise-identical sums to
/// the reference kernel's (ox*oy*oz) * weight.
void rasterize_box(const BoxTask& task, int grain, amr::IntVec3 dims,
                   double* work, double* storage, std::uint32_t* levels) {
  const amr::Box in_l0 = task.box->coarsen(task.rr);
  const amr::IntVec3 glo{in_l0.lo().x / grain, in_l0.lo().y / grain,
                         in_l0.lo().z / grain};
  const amr::IntVec3 ghi{(in_l0.hi().x + grain - 1) / grain,
                         (in_l0.hi().y + grain - 1) / grain,
                         (in_l0.hi().z + grain - 1) / grain};
  const int nx = ghi.x - glo.x;
  const int ny = ghi.y - glo.y;
  const int nz = ghi.z - glo.z;
  if (nx <= 0 || ny <= 0 || nz <= 0) return;

  util::ScratchArena& arena = util::scratch_arena();
  arena.reset();
  const std::span<double> ox = arena.make_span<double>(
      static_cast<std::size_t>(nx));
  const std::span<double> oy = arena.make_span<double>(
      static_cast<std::size_t>(ny));
  const std::span<double> oz = arena.make_span<double>(
      static_cast<std::size_t>(nz));
  const auto axis_overlap = [grain](int g, int lo, int hi) {
    const int a = std::max(lo, g * grain);
    const int b = std::min(hi, (g + 1) * grain);
    return static_cast<double>(b - a);
  };
  for (int i = 0; i < nx; ++i)
    ox[static_cast<std::size_t>(i)] =
        axis_overlap(glo.x + i, in_l0.lo().x, in_l0.hi().x);
  for (int j = 0; j < ny; ++j)
    oy[static_cast<std::size_t>(j)] =
        axis_overlap(glo.y + j, in_l0.lo().y, in_l0.hi().y);
  for (int k = 0; k < nz; ++k)
    oz[static_cast<std::size_t>(k)] =
        axis_overlap(glo.z + k, in_l0.lo().z, in_l0.hi().z);

  const std::uint32_t bit = 1u << task.level;
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j) {
      const double oyz = oy[static_cast<std::size_t>(j)] *
                         oz[static_cast<std::size_t>(k)];
      const double wyz = oyz * task.work_per_l0;
      const double syz = oyz * task.cells_per_l0;
      const std::size_t base =
          static_cast<std::size_t>(glo.x) +
          static_cast<std::size_t>(dims.x) *
              (static_cast<std::size_t>(glo.y + j) +
               static_cast<std::size_t>(dims.y) *
                   static_cast<std::size_t>(glo.z + k));
      double* wrow = work + base;
      double* srow = storage + base;
      std::uint32_t* lrow = levels + base;
      for (int i = 0; i < nx; ++i) {
        const double o = ox[static_cast<std::size_t>(i)];
        wrow[i] += o * wyz;
        srow[i] += o * syz;
        lrow[i] |= bit;
      }
    }
}
}  // namespace

WorkGrid::WorkGrid(const amr::GridHierarchy& hierarchy, int grain,
                   CurveKind curve, int threads)
    : WorkGrid(hierarchy, grain, curve, threads,
               /*reference_kernels=*/false) {}

WorkGrid WorkGrid::reference_build(const amr::GridHierarchy& hierarchy,
                                   int grain, CurveKind curve) {
  return WorkGrid(hierarchy, grain, curve, /*threads=*/1,
                  /*reference_kernels=*/true);
}

WorkGrid::WorkGrid(const amr::GridHierarchy& hierarchy, int grain,
                   CurveKind curve, int threads, bool reference_kernels)
    : grain_(grain),
      num_levels_(hierarchy.num_levels()),
      ratio_(hierarchy.ratio()),
      curve_(curve) {
  if (grain <= 0) throw std::invalid_argument("WorkGrid: grain <= 0");
  PRAGMA_SPAN_VAR(span, "partition", "WorkGrid.build");
  span.annotate("grain", static_cast<std::int64_t>(grain));
  const amr::IntVec3 base = hierarchy.base_dims();
  dims_ = {(base.x + grain - 1) / grain, (base.y + grain - 1) / grain,
           (base.z + grain - 1) / grain};
  const std::size_t count = static_cast<std::size_t>(dims_.x) *
                            static_cast<std::size_t>(dims_.y) *
                            static_cast<std::size_t>(dims_.z);
  work_.assign(count, 0.0);
  levels_.assign(count, 0u);
  storage_.assign(count, 0.0);

  // Rasterize each level's boxes onto the grain lattice.  A level-l box is
  // first coarsened to level-0 index space; for each overlapped grain cell
  // the exact level-0 overlap volume is scaled back to level-l quantities.
  std::vector<BoxTask> tasks;
  for (const amr::GridLevel& level : hierarchy.levels())
    for (const amr::Box& box : level.boxes)
      tasks.push_back(make_task(box, level.level, ratio_));

  const auto deposit = [&](const BoxTask& task, double* work, double* storage,
                           std::uint32_t* levels) {
    if (reference_kernels)
      reference_rasterize_box(task, grain, dims_, work, storage, levels);
    else
      rasterize_box(task, grain, dims_, work, storage, levels);
  };

  // Too few boxes to amortize per-thread partial grids: stay serial.
  constexpr std::size_t kMinTasksPerThread = 8;
  const std::size_t max_blocks =
      threads > 1 ? tasks.size() / kMinTasksPerThread : 1;
  if (max_blocks <= 1) {
    for (const BoxTask& task : tasks)
      deposit(task, work_.data(), storage_.data(), levels_.data());
  } else {
    const int blocks =
        static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(threads), max_blocks));
    std::vector<std::vector<double>> part_work;
    std::vector<std::vector<double>> part_storage;
    std::vector<std::vector<std::uint32_t>> part_levels;
    part_work.resize(static_cast<std::size_t>(blocks));
    part_storage.resize(static_cast<std::size_t>(blocks));
    part_levels.resize(static_cast<std::size_t>(blocks));
    const std::size_t used = util::parallel_blocks(
        tasks.size(), blocks,
        [&](std::size_t block, std::size_t begin, std::size_t end) {
          auto& bw = part_work[block];
          auto& bs = part_storage[block];
          auto& bl = part_levels[block];
          bw.assign(count, 0.0);
          bs.assign(count, 0.0);
          bl.assign(count, 0u);
          for (std::size_t t = begin; t < end; ++t)
            deposit(tasks[t], bw.data(), bs.data(), bl.data());
        });
    // Merge the contiguous slices in block order: deterministic for a
    // fixed thread count (and exact whenever the work values are, as for
    // the integer-valued per-box contributions; the level masks OR).
    for (std::size_t b = 0; b < used; ++b)
      for (std::size_t c = 0; c < count; ++c) {
        work_[c] += part_work[b][c];
        storage_[c] += part_storage[b][c];
        levels_[c] |= part_levels[b][c];
      }
  }

  order_ = curve_order_shared(dims_, curve);
  sequence_.reserve(order_->size());
  for (std::uint32_t c : *order_) sequence_.push_back(work_[c]);
  prefix_ = PrefixSums(sequence_);

  // Below the bound the curve-order total is exact, hence equal to the
  // lattice-order fold; past it the fold is kept (see work_sums_exact).
  total_work_ = prefix_.total();
  if (!work_sums_exact()) {
    total_work_ = 0.0;
    for (double w : work_) total_work_ += w;
  }
}

amr::IntVec3 WorkGrid::coords(std::size_t c) const {
  const auto x = static_cast<int>(c % static_cast<std::size_t>(dims_.x));
  const auto y = static_cast<int>((c / static_cast<std::size_t>(dims_.x)) %
                                  static_cast<std::size_t>(dims_.y));
  const auto z = static_cast<int>(c / (static_cast<std::size_t>(dims_.x) *
                                       static_cast<std::size_t>(dims_.y)));
  return {x, y, z};
}

amr::Box WorkGrid::cell_box(std::size_t c) const {
  const amr::IntVec3 p = coords(c);
  return amr::Box({p.x * grain_, p.y * grain_, p.z * grain_},
                  {(p.x + 1) * grain_, (p.y + 1) * grain_,
                   (p.z + 1) * grain_});
}

namespace {
struct CacheCounters {
  obs::Counter& hits = obs::metrics().counter("partition.workgrid_cache.hits");
  obs::Counter& misses =
      obs::metrics().counter("partition.workgrid_cache.misses");
  obs::Counter& evictions =
      obs::metrics().counter("partition.workgrid_cache.evictions");
};

CacheCounters& cache_counters() {
  static CacheCounters counters;
  return counters;
}
}  // namespace

WorkGridCache::WorkGridCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

std::shared_ptr<const WorkGrid> WorkGridCache::find_locked(const Key& key) {
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.misses;
    cache_counters().misses.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  ++stats_.hits;
  cache_counters().hits.add();
  return it->second.grid;
}

std::shared_ptr<const WorkGrid> WorkGridCache::insert_locked(
    const Key& key, std::shared_ptr<const WorkGrid> grid) {
  const auto [it, inserted] = cache_.try_emplace(key);
  if (!inserted) return it->second.grid;  // lost a concurrent-build race
  lru_.push_front(key);
  it->second = Entry{std::move(grid), lru_.begin()};
  while (cache_.size() > max_entries_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    cache_counters().evictions.add();
  }
  return it->second.grid;
}

std::shared_ptr<const WorkGrid> WorkGridCache::get_or_build(
    std::size_t snapshot, const amr::GridHierarchy& hierarchy, int grain,
    CurveKind curve, int threads) {
  const Key key{snapshot, grain, curve};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto grid = find_locked(key)) return grid;
  }
  // Rasterize outside the lock; a concurrent builder of the same key loses
  // the insertion race and its grid is dropped.
  auto grid = std::make_shared<const WorkGrid>(hierarchy, grain, curve,
                                               threads);
  std::lock_guard<std::mutex> lock(mutex_);
  return insert_locked(key, std::move(grid));
}

std::size_t WorkGridCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void WorkGridCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  lru_.clear();
}

WorkGridCache::Stats WorkGridCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pragma::partition
