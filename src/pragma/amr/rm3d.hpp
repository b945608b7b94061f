// RM3D emulator: a synthetic Richtmyer–Meshkov instability driver.
//
// The paper's case study uses RM3D, "a 3-D compressible turbulence
// application solving the Richtmyer-Meshkov instability", with a base grid
// of 128x32x32, 3 levels of factor-2 space-time refinement, regridding every
// 4 steps, 800 coarse steps and a trace of over 200 snapshots.
//
// We do not solve hydrodynamics; the partitioners and the octant classifier
// consume only the *structure* of the grid hierarchy.  The emulator
// reproduces the structural phenomenology of an RM run:
//
//  * an incident planar shock sweeps down the long (x) axis and is refined
//    to the finest level in a thin moving slab (localized, high dynamics);
//  * the shocked material interface develops a growing mixing zone that is
//    refined at intermediate level with embedded fine-level turbulent blobs
//    (increasingly scattered, lower dynamics as growth saturates);
//  * a reflected shock ("reshock") sweeps back, re-energizing the mixing
//    zone (a burst of scattered, high-dynamics adaptation);
//  * late time: a broad, slowly evolving turbulent mixing region
//    (scattered, low dynamics).
//
// Refinement is driven by a deterministic analytic indicator function; the
// flagged cells feed the real Berger–Rigoutsos clusterer to produce patch
// boxes, exactly as an error estimator would in a production SAMR framework.
#pragma once

#include <vector>

#include "pragma/amr/cluster_br.hpp"
#include "pragma/amr/hierarchy.hpp"
#include "pragma/amr/trace.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::amr {

struct Rm3dConfig {
  IntVec3 base_dims{128, 32, 32};
  int max_levels = 3;
  int ratio = 2;
  int regrid_interval = 4;
  int coarse_steps = 800;
  std::uint64_t seed = 7;
  /// Indicator thresholds: a cell refines to level l+1 where the indicator
  /// exceeds thresholds[l].
  std::vector<double> thresholds{1.0, 2.0};
  /// Clustering controls.  max_box_cells bounds the *emitted* (refined)
  /// patch size — the quantity the paper's "refined grid components no
  /// larger than Q" policies configure at runtime.
  ClusterOptions cluster{/*efficiency=*/0.65, /*min_width=*/4,
                         /*max_box_cells=*/262144, /*max_depth=*/64};
};

/// A fine-level turbulent feature inside the mixing zone.
struct TurbulentBlob {
  double u = 0.5;        ///< offset within the mixing zone along x, in [-1,1]
  double v = 0.5;        ///< normalized y position
  double w = 0.5;        ///< normalized z position
  double radius = 0.03;  ///< normalized radius
  double birth = 0.0;    ///< normalized time at which the blob appears
  double drift_v = 0.0;  ///< per-unit-time drift in v
  double drift_w = 0.0;  ///< per-unit-time drift in w
};

class Rm3dEmulator {
 public:
  explicit Rm3dEmulator(Rm3dConfig config = {});

  [[nodiscard]] const Rm3dConfig& config() const { return config_; }
  [[nodiscard]] int step() const { return step_; }
  [[nodiscard]] const GridHierarchy& hierarchy() const { return hierarchy_; }

  /// Advance one coarse time-step; regrids (and returns true) when the
  /// regrid interval divides the new step index.
  bool advance();

  /// Rebuild the hierarchy from the indicator at the current step.
  void regrid();

  /// Adjust the clusterer's patch-size bound at runtime ("If cache size of
  /// Y use refined grid components no larger than Q" — the dynamic
  /// application-configuration hook; 0 disables chopping).  Takes effect
  /// at the next regrid.
  void set_max_box_cells(std::int64_t max_cells) {
    config_.cluster.max_box_cells = max_cells;
  }

  /// Run the whole configured simulation, returning a snapshot per regrid
  /// (including the initial one at step 0).
  [[nodiscard]] AdaptationTrace run();

  /// Restore the emulator to a checkpointed position: step counter plus
  /// the hierarchy produced by the last regrid before that step.  The
  /// blob field is a pure function of the config seed, so this is all the
  /// state a resume needs.
  void restore(int step, GridHierarchy hierarchy) {
    step_ = step;
    hierarchy_ = std::move(hierarchy);
  }

  /// The refinement indicator at normalized position (u, v, w) in [0,1]^3
  /// and normalized time tau in [0,1]: the largest of its terms.
  /// Evaluated on every cell of a level's coverage, it is the brute-force
  /// oracle the regrid's per-term flagging must match.
  [[nodiscard]] double indicator(double u, double v, double w,
                                 double tau) const;

  /// Phase descriptors (normalized time), exposed for tests/benches.
  [[nodiscard]] double shock_position(double tau) const;
  [[nodiscard]] bool shock_active(double tau) const;
  [[nodiscard]] double mixing_center(double tau) const;
  [[nodiscard]] double mixing_width(double tau) const;
  [[nodiscard]] double normalized_time() const {
    return static_cast<double>(step_) /
           static_cast<double>(config_.coarse_steps);
  }

 private:
  void seed_blobs();
  [[nodiscard]] std::vector<Box> flag_and_cluster(int level);

  Rm3dConfig config_;
  GridHierarchy hierarchy_;
  int step_ = 0;
  std::vector<TurbulentBlob> blobs_;
};

}  // namespace pragma::amr
