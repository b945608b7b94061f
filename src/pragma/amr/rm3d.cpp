#include "pragma/amr/rm3d.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

namespace pragma::amr {

namespace {
// Phase timeline in normalized time tau = step / coarse_steps.
// The incident shock starts *outside* the domain and enters at
// tau ~ 0.022, so the run opens with a brief quiescent phase (static
// interface refinement only) after the initialization transient dies out.
constexpr double kShockStart = -0.05;  // initial shock position (u)
constexpr double kShockSpeed = 2.2857; // du/dtau of the incident shock
constexpr double kShockExit = 0.46;    // incident shock leaves the domain
constexpr double kHitTime = 0.162;     // shock reaches the interface
constexpr double kStartupEnd = 0.004;  // initialization-noise transient
constexpr double kReshockStart = 0.55; // reflected shock re-enters at u=1
constexpr double kReshockSpeed = 2.4;  // du/dtau of the reflected shock
constexpr double kReshockEnd = 0.82;   // reshock absorbed by the mixing zone
constexpr double kReshockHit = 0.80;   // reshock reaches the mixing zone
constexpr double kInterface0 = 0.32;   // initial interface position

// The indicator is the largest of compact quadratic bumps; each has a
// peak and a half-width (or a radius of its own).
constexpr double kNoisePeak = 1.4;       // start-up noise pockets
constexpr double kShockCorePeak = 2.6;   // finest-level core of the front
constexpr double kShockCore = 0.018;
constexpr double kShockBandPeak = 1.35;  // level-1 band around the front
constexpr double kShockBand = 0.050;
constexpr double kInterfacePeak = 1.3;   // quiescent interface slab
constexpr double kSlabPeak = 1.55;       // developed mixing-zone slab
constexpr double kMixingReach = 1.25;    // its reach, in zone half-widths
constexpr double kBlobPeak = 2.7;        // turbulent blobs in the zone
constexpr std::size_t kStartupBlobs = 40;  // blobs that double as noise

/// Compact quadratic bump: s at distance 0, 0 beyond `radius`.
double bump(double distance, double radius, double s) {
  const double q = distance / radius;
  const double v = 1.0 - q * q;
  return v > 0.0 ? s * v : 0.0;
}

/// The indicator's per-τ terms: everything that does not depend on the
/// cell.
struct Phase {
  double tau = 0.0;
  bool shock = false;    ///< a shock front is inside the domain...
  double shock_u = 0.0;  ///< ...at this position
  double xc = 0.0;       ///< mixing-zone centre
  double half = 0.0;     ///< mixing-zone half-width
};

Phase phase_at(const Rm3dEmulator& emulator, double tau) {
  return {tau, emulator.shock_active(tau), emulator.shock_position(tau),
          emulator.mixing_center(tau), emulator.mixing_width(tau)};
}

/// A blob's centre and radius at some τ.
struct Sphere {
  double u = 0.0;
  double v = 0.0;
  double w = 0.0;
  double radius = 0.0;
};

/// Start-up noise reuses a blob's parameters, transposed across the domain.
Sphere startup_sphere(const TurbulentBlob& blob) {
  return {0.05 + 0.90 * blob.v, blob.w, 0.5 * (blob.u + 1.0),
          0.6 * blob.radius};
}

/// A turbulent blob rides the mixing zone and drifts in (v, w) as it ages.
Sphere mixing_sphere(const TurbulentBlob& blob, const Phase& phase) {
  const double age = phase.tau - blob.birth;
  return {phase.xc + blob.u * 0.85 * phase.half, blob.v + blob.drift_v * age,
          blob.w + blob.drift_w * age, blob.radius};
}

/// Whether the (v, w) row lies inside the sphere's bounding square.
bool spans_row(const Sphere& s, double v, double w) {
  return std::abs(v - s.v) <= s.radius && std::abs(w - s.w) <= s.radius;
}

/// Raise `ind` to the sphere's bump at (u, v, w); cells outside its
/// bounding cube are rejected before the radial test.
void raise_by_sphere(double& ind, const Sphere& s, double u, double v,
                     double w, double peak) {
  if (std::abs(u - s.u) > s.radius || !spans_row(s, v, w)) return;
  const double r = std::sqrt((u - s.u) * (u - s.u) + (v - s.v) * (v - s.v) +
                             (w - s.w) * (w - s.w));
  ind = std::max(ind, bump(r, s.radius, peak));
}

std::span<const TurbulentBlob> startup_blobs(
    const std::vector<TurbulentBlob>& blobs) {
  return std::span(blobs).first(std::min(blobs.size(), kStartupBlobs));
}

/// The refinement indicator at (u, v, w).  A blob whose bounding cube
/// misses the cell adds nothing, so callers may drop such blobs from
/// `startup` and `mixing` without changing the result.
double evaluate(const Phase& phase, std::span<const TurbulentBlob> startup,
                std::span<const TurbulentBlob> mixing, double u, double v,
                double w) {
  double ind = 0.0;

  // Initialization transient: the first error estimate tags scattered
  // pockets of start-up noise across the domain (they vanish by the first
  // regrid, giving the trace its initial scattered, high-churn snapshot).
  if (phase.tau < kStartupEnd)
    for (const TurbulentBlob& blob : startup)
      raise_by_sphere(ind, startup_sphere(blob), u, v, w, kNoisePeak);

  // Shock front: a thin finest-level core inside a wider level-1 band.
  if (phase.shock) {
    const double dx = std::abs(u - phase.shock_u);
    ind = std::max(ind, bump(dx, kShockCore, kShockCorePeak));
    ind = std::max(ind, bump(dx, kShockBand, kShockBandPeak));
  }

  // Material interface / mixing zone.
  const double du = std::abs(u - phase.xc);
  if (du < phase.half * kMixingReach) {
    if (phase.tau < kHitTime) {
      // Quiescent perturbed interface: a compact level-1 slab (the
      // perturbation amplitude is below the finest-level threshold until
      // the shock arrives).
      ind = std::max(ind, bump(du, phase.half, kInterfacePeak));
    } else {
      // Developed mixing zone: level-1 slab...
      ind = std::max(ind, bump(du, phase.half * kMixingReach, kSlabPeak));
      // ...with embedded finest-level turbulent blobs.
      for (const TurbulentBlob& blob : mixing)
        if (blob.birth <= phase.tau)
          raise_by_sphere(ind, mixing_sphere(blob, phase), u, v, w,
                          kBlobPeak);
    }
  }
  return ind;
}

/// The x-cells [first, second) whose centres (x + 0.5) / n may lie within
/// `reach` of `centre`, padded by a cell on each side against rounding.
std::pair<int, int> cells_near(double centre, double reach, double n) {
  return {static_cast<int>(std::floor((centre - reach) * n - 0.5)) - 1,
          static_cast<int>(std::ceil((centre + reach) * n - 0.5)) + 2};
}

/// Flag the cells of `coverage` whose indicator reaches `threshold`, with
/// indicator()'s arithmetic on far fewer cells.  Each bump is at most its
/// peak and exactly 0 outside its support, so a cell outside the support
/// of every term whose peak reaches a threshold > 0 cannot be flagged.
/// Each (y, z) row therefore evaluates only the x-cells of those supports,
/// against only the blobs whose bounding square holds the row.  A
/// threshold <= 0 flags every cell, so such a level takes whole rows.
void flag_rows(FlagField& flags, const std::vector<Box>& coverage,
               const Phase& phase, const std::vector<TurbulentBlob>& blobs,
               double nx, double ny, double nz, double threshold) {
  const auto reaches = [threshold](double peak) { return peak >= threshold; };
  struct Candidate {
    TurbulentBlob blob;
    Sphere sphere;
  };
  std::vector<Candidate> startup;
  std::vector<Candidate> mixing;
  if (phase.tau < kStartupEnd)
    for (const TurbulentBlob& blob : startup_blobs(blobs))
      startup.push_back({blob, startup_sphere(blob)});
  if (phase.tau >= kHitTime)
    for (const TurbulentBlob& blob : blobs)
      if (blob.birth <= phase.tau)
        mixing.push_back({blob, mixing_sphere(blob, phase)});
  // Supports shared by every row.
  std::vector<std::pair<int, int>> level_spans;
  if (phase.shock && reaches(kShockCorePeak))
    level_spans.push_back(cells_near(phase.shock_u, kShockCore, nx));
  if (phase.shock && reaches(kShockBandPeak))
    level_spans.push_back(cells_near(phase.shock_u, kShockBand, nx));
  if (reaches(phase.tau < kHitTime ? kInterfacePeak : kSlabPeak))
    level_spans.push_back(
        cells_near(phase.xc, phase.half * kMixingReach, nx));

  // Candidates are culled per z-plane on w, then per row on (v, w); the
  // row's survivors add their supports when their peak reaches.
  const auto in_plane = [](const std::vector<Candidate>& all, double w,
                           std::vector<Candidate>& out) {
    out.clear();
    for (const Candidate& c : all)
      if (std::abs(w - c.sphere.w) <= c.sphere.radius) out.push_back(c);
  };
  const auto in_row = [&](const std::vector<Candidate>& plane, double v,
                          double w, bool reach,
                          std::vector<TurbulentBlob>& out,
                          std::vector<std::pair<int, int>>& spans) {
    out.clear();
    for (const Candidate& c : plane)
      if (spans_row(c.sphere, v, w)) {
        out.push_back(c.blob);
        if (reach)
          spans.push_back(cells_near(c.sphere.u, c.sphere.radius, nx));
      }
  };
  std::vector<Candidate> plane_startup;
  std::vector<Candidate> plane_mixing;
  std::vector<TurbulentBlob> row_startup;
  std::vector<TurbulentBlob> row_mixing;
  std::vector<std::pair<int, int>> spans;
  for (const Box& box : coverage) {
    for (int z = box.lo().z; z < box.hi().z; ++z) {
      const double wn = (static_cast<double>(z) + 0.5) / nz;
      in_plane(startup, wn, plane_startup);
      in_plane(mixing, wn, plane_mixing);
      for (int y = box.lo().y; y < box.hi().y; ++y) {
        const double vn = (static_cast<double>(y) + 0.5) / ny;
        spans = level_spans;
        in_row(plane_startup, vn, wn, reaches(kNoisePeak), row_startup,
               spans);
        in_row(plane_mixing, vn, wn, reaches(kBlobPeak), row_mixing, spans);
        if (threshold <= 0.0) spans.assign(1, {box.lo().x, box.hi().x});
        std::sort(spans.begin(), spans.end());
        int next = box.lo().x;
        for (const auto& [lo, hi] : spans) {
          for (int x = std::max(lo, next); x < std::min(hi, box.hi().x);
               ++x) {
            const double un = (static_cast<double>(x) + 0.5) / nx;
            if (evaluate(phase, row_startup, row_mixing, un, vn, wn) >=
                threshold)
              flags.set({x, y, z});
          }
          next = std::max(next, hi);
        }
      }
    }
  }
}
}  // namespace

Rm3dEmulator::Rm3dEmulator(Rm3dConfig config)
    : config_(std::move(config)),
      hierarchy_(config_.base_dims, config_.ratio, config_.max_levels) {
  if (static_cast<int>(config_.thresholds.size()) < config_.max_levels - 1)
    throw std::invalid_argument(
        "Rm3dEmulator: need one threshold per refined level");
  seed_blobs();
  regrid();
}

void Rm3dEmulator::seed_blobs() {
  util::Rng rng(config_.seed);
  blobs_.clear();
  // First generation: instability features appearing after shock passage.
  for (int i = 0; i < 32; ++i) {
    TurbulentBlob blob;
    blob.birth = rng.uniform(kHitTime + 0.01, kReshockStart);
    blob.u = rng.uniform(-0.9, 0.9);
    blob.v = rng.uniform(0.10, 0.90);
    blob.w = rng.uniform(0.10, 0.90);
    blob.radius = rng.uniform(0.018, 0.040);
    blob.drift_v = rng.uniform(-0.03, 0.03);
    blob.drift_w = rng.uniform(-0.03, 0.03);
    blobs_.push_back(blob);
  }
  // Reshock generation: a denser, coarser population appearing quickly
  // after the reflected shock strikes the mixing zone.
  for (int i = 0; i < 44; ++i) {
    TurbulentBlob blob;
    blob.birth = rng.uniform(kReshockHit, kReshockHit + 0.12);
    blob.u = rng.uniform(-0.95, 0.95);
    blob.v = rng.uniform(0.06, 0.94);
    blob.w = rng.uniform(0.06, 0.94);
    blob.radius = rng.uniform(0.022, 0.055);
    blob.drift_v = rng.uniform(-0.05, 0.05);
    blob.drift_w = rng.uniform(-0.05, 0.05);
    blobs_.push_back(blob);
  }
}

double Rm3dEmulator::shock_position(double tau) const {
  if (tau < kShockExit) return kShockStart + kShockSpeed * tau;
  if (tau >= kReshockStart && tau <= kReshockEnd)
    return 1.0 - kReshockSpeed * (tau - kReshockStart);
  return -1.0;  // no active shock
}

bool Rm3dEmulator::shock_active(double tau) const {
  const double pos = shock_position(tau);
  return pos >= 0.0 && pos <= 1.0;
}

double Rm3dEmulator::mixing_center(double tau) const {
  return kInterface0 + 0.10 * std::max(0.0, tau - kHitTime);
}

double Rm3dEmulator::mixing_width(double tau) const {
  // Half-width of the mixing zone.  The pre-shock interface slab is a
  // diffuse contact layer (a compact, computation-dominated refinement).
  if (tau < kHitTime) return 0.028;
  double w = 0.018 + 0.11 * std::pow(tau - kHitTime, 0.6);
  if (tau > kReshockHit) w += 0.10 * std::sqrt(tau - kReshockHit);
  return w;
}

double Rm3dEmulator::indicator(double u, double v, double w,
                               double tau) const {
  return evaluate(phase_at(*this, tau), startup_blobs(blobs_), blobs_, u, v,
                  w);
}

std::vector<Box> Rm3dEmulator::flag_and_cluster(int level) {
  const double tau = normalized_time();
  const auto r = static_cast<int>(hierarchy_.cumulative_ratio(level));
  const double nx = static_cast<double>(config_.base_dims.x * r);
  const double ny = static_cast<double>(config_.base_dims.y * r);
  const double nz = static_cast<double>(config_.base_dims.z * r);
  const double threshold = config_.thresholds[static_cast<std::size_t>(level)];

  // Flag within this level's existing coverage (whole domain for level 0).
  std::vector<Box> coverage;
  if (level == 0) {
    coverage.push_back(hierarchy_.level_domain(0));
  } else if (level < hierarchy_.num_levels()) {
    coverage = hierarchy_.level(level).boxes;
  } else {
    return {};
  }
  if (coverage.empty()) return {};

  const Box field_domain = bounding_box(coverage);
  FlagField flags(field_domain);
  flag_rows(flags, coverage, phase_at(*this, tau), blobs_, nx, ny, nz,
            threshold);
  if (!flags.any()) return {};

  // Clustering happens in level-`level` index space; the patch-size bound
  // applies to the *emitted* level-(level+1) patches, so chop after
  // refinement.
  ClusterOptions options = config_.cluster;
  options.max_box_cells = 0;
  std::vector<Box> clustered = cluster_flags(flags, field_domain, options);
  std::vector<Box> refined;
  refined.reserve(clustered.size());
  for (const Box& box : clustered) {
    const Box fine = box.refine(config_.ratio);
    if (config_.cluster.max_box_cells > 0 &&
        fine.volume() > config_.cluster.max_box_cells) {
      for (const Box& piece : fine.chop(config_.cluster.max_box_cells))
        refined.push_back(piece);
    } else {
      refined.push_back(fine);
    }
  }
  return refined;
}

void Rm3dEmulator::regrid() {
  // Rebuild fine levels bottom-up from the indicator.  Level l+1 boxes come
  // from flags on level l, so nesting holds by construction.
  GridHierarchy fresh(config_.base_dims, config_.ratio, config_.max_levels);
  hierarchy_ = std::move(fresh);
  for (int level = 0; level + 1 < config_.max_levels; ++level) {
    std::vector<Box> next = flag_and_cluster(level);
    if (next.empty()) break;
    hierarchy_.set_level_boxes(level + 1, std::move(next));
  }
}

bool Rm3dEmulator::advance() {
  ++step_;
  if (step_ % config_.regrid_interval == 0) {
    regrid();
    return true;
  }
  return false;
}

AdaptationTrace Rm3dEmulator::run() {
  AdaptationTrace trace;
  trace.add(Snapshot{step_, hierarchy_});
  while (step_ < config_.coarse_steps) {
    if (advance()) trace.add(Snapshot{step_, hierarchy_});
  }
  return trace;
}

}  // namespace pragma::amr
