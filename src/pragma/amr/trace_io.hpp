// Adaptation-trace persistence.
//
// The paper's workflow captures the adaptation trace in a single-processor
// run and analyzes it offline ("this trace was then analyzed using the
// octant approach").  These helpers serialize traces to a line-oriented
// text format so captured traces can be stored, diffed and replayed
// without re-running the application.
//
// Format:
//   pragma-trace 1
//   config <bx> <by> <bz> <ratio> <max_levels>
//   snapshot <step> <num_levels>
//   level <l> <nboxes>
//   box <lox> <loy> <loz> <hix> <hiy> <hiz>
//   ...
//
// Trace files cross the trust boundary (they are captured on one machine
// and replayed on another), so the loader validates every header count
// against the TraceLimits caps *before* allocating: a malformed or
// hostile file yields a bounded util::Status, never a multi-gigabyte
// resize, a negative-extent box or a box outside its level's domain.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "pragma/amr/trace.hpp"
#include "pragma/util/status.hpp"

namespace pragma::amr {

/// Hard caps on trace-file contents, shared by the text loader and the
/// binary checkpoint codec.  Anything above these is rejected as hostile
/// or corrupt — they are far above what any real SAMR run produces.
struct TraceLimits {
  /// Largest base-domain extent per axis.
  static constexpr int kMaxDim = 1 << 14;
  /// Space-time refinement factor range.
  static constexpr int kMinRatio = 2;
  static constexpr int kMaxRatio = 16;
  /// Deepest hierarchy (counting level 0).
  static constexpr int kMaxLevels = 24;
  /// Most patch boxes on a single level.
  static constexpr std::uint32_t kMaxBoxesPerLevel = 1u << 20;
  /// Most snapshots in one trace.
  static constexpr std::uint32_t kMaxSnapshots = 1u << 18;
  /// Box coordinates must lie in [-kMaxCoord, kMaxCoord].
  static constexpr std::int64_t kMaxCoord = std::int64_t{1} << 30;
};

/// Validate a trace/hierarchy configuration header against TraceLimits.
[[nodiscard]] util::Status validate_trace_config(IntVec3 base_dims, int ratio,
                                                 int max_levels);

/// Validate one level-`level` box of `hierarchy`: coordinates within
/// bounds, hi >= lo on every axis, and inside the level's domain
/// (GridHierarchy::in_level_domain; kOutOfRange naming the level and the
/// box).  Both trace loaders check every box through it.
[[nodiscard]] util::Status validate_trace_box(const GridHierarchy& hierarchy,
                                              int level, const IntVec3& lo,
                                              const IntVec3& hi);

/// Write a trace.  All hierarchies must share the same configuration
/// (base dims / ratio / max levels); throws std::invalid_argument
/// otherwise, or on an empty trace.
void save_trace(std::ostream& os, const AdaptationTrace& trace);

/// Read a trace written by save_trace.  Structured-error variant: every
/// malformed input (bad keyword, count above cap, inverted box, truncated
/// stream) returns a Status instead of throwing.
[[nodiscard]] util::Expected<AdaptationTrace> try_load_trace(
    std::istream& is);
[[nodiscard]] util::Expected<AdaptationTrace> try_load_trace_file(
    const std::string& path);

/// Convenience file-path wrapper around save_trace.
void save_trace_file(const std::string& path, const AdaptationTrace& trace);

}  // namespace pragma::amr
