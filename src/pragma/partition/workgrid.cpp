#include "pragma/partition/workgrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"
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

/// Vectorizable kernel: no Box construction and no intersection test, since
/// every cell in the coarsened footprint overlaps it.  Along each axis a
/// grain cell overlaps the footprint by a whole grain, except at the
/// footprint's two end cells, so each lattice row is its first cell, a
/// branchless stride-1 run of whole-grain cells and its last cell.  All
/// per-cell contributions are products of exact small integers, so the
/// factored form (ox * (oy*oz*weight)) produces bitwise-identical sums to
/// the reference kernel's (ox*oy*oz) * weight.
void rasterize_box(const BoxTask& task, int grain, amr::IntVec3 dims,
                   double* work, double* storage, std::uint32_t* levels) {
  const amr::Box in_l0 = task.box->coarsen(task.rr);
  const amr::IntVec3 lo = in_l0.lo();
  const amr::IntVec3 hi = in_l0.hi();
  const amr::IntVec3 glo{lo.x / grain, lo.y / grain, lo.z / grain};
  const amr::IntVec3 ghi{(hi.x + grain - 1) / grain,
                         (hi.y + grain - 1) / grain,
                         (hi.z + grain - 1) / grain};
  const int nx = ghi.x - glo.x;
  if (nx <= 0 || ghi.y <= glo.y || ghi.z <= glo.z) return;

  // Overlap of grain cell g with the footprint along `axis`.
  const auto overlap = [&](int axis, int g) {
    return static_cast<double>(std::min(hi[axis], (g + 1) * grain) -
                               std::max(lo[axis], g * grain));
  };
  const double first_x = overlap(0, glo.x);
  const double last_x = overlap(0, ghi.x - 1);
  const auto whole = static_cast<double>(grain);
  const std::uint32_t bit = 1u << task.level;
  for (int gz = glo.z; gz < ghi.z; ++gz) {
    const double oz = overlap(2, gz);
    for (int gy = glo.y; gy < ghi.y; ++gy) {
      const double oyz = overlap(1, gy) * oz;
      const double wyz = oyz * task.work_per_l0;
      const double syz = oyz * task.cells_per_l0;
      const std::size_t base =
          static_cast<std::size_t>(glo.x) +
          static_cast<std::size_t>(dims.x) *
              (static_cast<std::size_t>(gy) +
               static_cast<std::size_t>(dims.y) *
                   static_cast<std::size_t>(gz));
      double* wrow = work + base;
      double* srow = storage + base;
      std::uint32_t* lrow = levels + base;
      wrow[0] += first_x * wyz;
      srow[0] += first_x * syz;
      lrow[0] |= bit;
      const double w_whole = whole * wyz;
      const double s_whole = whole * syz;
      for (int i = 1; i < nx - 1; ++i) {
        wrow[i] += w_whole;
        srow[i] += s_whole;
        lrow[i] |= bit;
      }
      if (nx > 1) {
        wrow[nx - 1] += last_x * wyz;
        srow[nx - 1] += last_x * syz;
        lrow[nx - 1] |= bit;
      }
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
  // A box outside its level's domain would deposit outside the lattice.
  std::vector<BoxTask> tasks;
  for (const amr::GridLevel& level : hierarchy.levels())
    for (const amr::Box& box : level.boxes) {
      if (!hierarchy.in_level_domain(level.level, box))
        throw std::invalid_argument(
            std::string("WorkGrid: level ")
                .append(std::to_string(level.level))
                .append(" box outside the level's domain"));
      tasks.push_back(make_task(box, level.level, ratio_));
    }

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
  {
    std::vector<double> sequence;
    sequence.reserve(order_->size());
    for (std::uint32_t c : *order_) sequence.push_back(work_[c]);
    prefix_ = PrefixSums(sequence);
  }

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

std::shared_ptr<const WorkGrid> shared_or_built(
    WorkGridCache* cache, std::size_t snapshot,
    const amr::GridHierarchy& hierarchy, int grain, CurveKind curve,
    int threads) {
  if (cache != nullptr)
    return cache->get_or_build(snapshot, hierarchy, grain, curve, threads);
  return std::make_shared<const WorkGrid>(hierarchy, grain, curve, threads);
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
