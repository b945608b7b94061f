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
/// bounding cube are rejected before the radial test.  Inline, as is
/// line_terms: the brute-force indicator() runs them for every cell.
inline void raise_by_sphere(double& ind, const Sphere& s, double u, double v,
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

/// Whether u lies in the material interface / mixing zone, the reach of
/// its slab and the only place its turbulent blobs act.
bool in_mixing_zone(const Phase& phase, double u) {
  return std::abs(u - phase.xc) < phase.half * kMixingReach;
}

/// The largest of the terms that depend on u alone.
inline double line_terms(const Phase& phase, double u) {
  double ind = 0.0;
  // Shock front: a thin finest-level core inside a wider level-1 band.
  if (phase.shock) {
    const double dx = std::abs(u - phase.shock_u);
    ind = std::max(ind, bump(dx, kShockCore, kShockCorePeak));
    ind = std::max(ind, bump(dx, kShockBand, kShockBandPeak));
  }
  if (in_mixing_zone(phase, u)) {
    const double du = std::abs(u - phase.xc);
    // Before the shock arrives, the quiescent perturbed interface is a
    // compact level-1 slab (its perturbation amplitude is below the
    // finest-level threshold); after it, the developed mixing zone's
    // level-1 slab.
    ind = std::max(ind, phase.tau < kHitTime
                            ? bump(du, phase.half, kInterfacePeak)
                            : bump(du, phase.half * kMixingReach, kSlabPeak));
  }
  return ind;
}

/// The x-cells [first, second) whose centres (x + 0.5) / n may lie within
/// `reach` of `centre`, padded by a cell on each side against rounding.
std::pair<int, int> cells_near(double centre, double reach, double n) {
  return {static_cast<int>(std::floor((centre - reach) * n - 0.5)) - 1,
          static_cast<int>(std::ceil((centre + reach) * n - 0.5)) + 2};
}

/// Flag the cells of `coverage` whose indicator reaches `threshold`.  The
/// indicator is the max of its terms and max returns one of its operands
/// bit for bit, so a cell is flagged exactly when a single term, computed
/// as indicator() computes it, reaches the threshold.  The terms of u
/// alone become one mask over the field's x-range.  Each (y, z) row then
/// tests only the blobs whose bounding square holds it, each alone and
/// only over its own padded x-support: a bump is at most its peak and 0
/// outside its support.  The finished row is ORed into `flags`.
void flag_rows(FlagField& flags, const std::vector<Box>& coverage,
               const Phase& phase, const std::vector<TurbulentBlob>& blobs,
               double nx, double ny, double nz, double threshold) {
  const int x0 = flags.domain().lo().x;
  const auto column = [x0](int x) { return static_cast<std::size_t>(x - x0); };
  std::vector<std::uint8_t> line(column(flags.domain().hi().x));
  std::vector<std::uint8_t> zone(line.size());
  for (int x = x0; x < flags.domain().hi().x; ++x) {
    const double un = (static_cast<double>(x) + 0.5) / nx;
    line[column(x)] = line_terms(phase, un) >= threshold;
    zone[column(x)] = in_mixing_zone(phase, un);
  }

  // The blobs whose peak reaches: start-up noise, and the mixing-zone
  // blobs, which act only inside the zone.
  struct Candidate {
    Sphere sphere;
    double peak;
    bool in_zone_only;
    std::pair<int, int> support;
  };
  std::vector<Candidate> candidates;
  const auto add = [&](const Sphere& s, double peak, bool in_zone_only) {
    if (peak >= threshold)
      candidates.push_back(
          {s, peak, in_zone_only, cells_near(s.u, s.radius, nx)});
  };
  if (phase.tau < kStartupEnd)
    for (const TurbulentBlob& blob : startup_blobs(blobs))
      add(startup_sphere(blob), kNoisePeak, false);
  if (phase.tau >= kHitTime)
    for (const TurbulentBlob& blob : blobs)
      if (blob.birth <= phase.tau)
        add(mixing_sphere(blob, phase), kBlobPeak, true);

  std::vector<const Candidate*> plane;
  std::vector<std::uint8_t> row;
  for (const Box& box : coverage) {
    const int lo = box.lo().x;
    const int hi = box.hi().x;
    const std::span<const std::uint8_t> segment(line.data() + column(lo),
                                                line.data() + column(hi));
    const bool segment_flags =
        std::find(segment.begin(), segment.end(), 1) != segment.end();
    for (int z = box.lo().z; z < box.hi().z; ++z) {
      const double wn = (static_cast<double>(z) + 0.5) / nz;
      plane.clear();
      for (const Candidate& c : candidates)
        if (std::abs(wn - c.sphere.w) <= c.sphere.radius) plane.push_back(&c);
      for (int y = box.lo().y; y < box.hi().y; ++y) {
        const double vn = (static_cast<double>(y) + 0.5) / ny;
        // A row no blob spans is the line mask's segment; the first blob
        // that spans it starts a copy to write into.
        row.clear();
        for (const Candidate* c : plane) {
          if (!spans_row(c->sphere, vn, wn)) continue;
          if (row.empty()) row.assign(segment.begin(), segment.end());
          for (int x = std::max(c->support.first, lo);
               x < std::min(c->support.second, hi); ++x) {
            std::uint8_t& cell = row[static_cast<std::size_t>(x - lo)];
            if (cell != 0 || (c->in_zone_only && zone[column(x)] == 0))
              continue;
            const double un = (static_cast<double>(x) + 0.5) / nx;
            double term = 0.0;
            raise_by_sphere(term, c->sphere, un, vn, wn, c->peak);
            cell = term >= threshold;
          }
        }
        if (!row.empty())
          flags.or_row({lo, y, z}, row);
        else if (segment_flags)
          flags.or_row({lo, y, z}, segment);
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
  const Phase phase = phase_at(*this, tau);
  double ind = line_terms(phase, u);
  // Initialization transient: the first error estimate tags scattered
  // pockets of start-up noise across the domain (they vanish by the first
  // regrid, giving the trace its initial scattered, high-churn snapshot).
  if (tau < kStartupEnd)
    for (const TurbulentBlob& blob : startup_blobs(blobs_))
      raise_by_sphere(ind, startup_sphere(blob), u, v, w, kNoisePeak);
  // Finest-level turbulent blobs embedded in the developed mixing zone.
  if (tau >= kHitTime && in_mixing_zone(phase, u))
    for (const TurbulentBlob& blob : blobs_)
      if (blob.birth <= tau)
        raise_by_sphere(ind, mixing_sphere(blob, phase), u, v, w, kBlobPeak);
  return ind;
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
