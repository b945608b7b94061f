#include "pragma/io/snapshot.hpp"

#include <stdexcept>
#include <string>

namespace pragma::io {

namespace {

using util::Status;

/// Hard caps on a decoded trace.  Anything above them is rejected as
/// hostile or corrupt; they are far above what any real SAMR run produces.
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

/// Per-box wire size: six i32 coordinates.
constexpr std::size_t kBoxBytes = 6 * sizeof(std::int32_t);

Status validate_trace_config(amr::IntVec3 base_dims, int ratio,
                             int max_levels) {
  const auto dim_ok = [](int d) {
    return d >= 1 && d <= TraceLimits::kMaxDim;
  };
  if (!dim_ok(base_dims.x) || !dim_ok(base_dims.y) || !dim_ok(base_dims.z))
    return Status::out_of_range(
        "base dims " + std::to_string(base_dims.x) + "x" +
        std::to_string(base_dims.y) + "x" + std::to_string(base_dims.z) +
        " outside [1, " + std::to_string(TraceLimits::kMaxDim) + "]");
  if (ratio < TraceLimits::kMinRatio || ratio > TraceLimits::kMaxRatio)
    return Status::out_of_range("refinement ratio " + std::to_string(ratio) +
                                " outside [" +
                                std::to_string(TraceLimits::kMinRatio) + ", " +
                                std::to_string(TraceLimits::kMaxRatio) + "]");
  if (max_levels < 1 || max_levels > TraceLimits::kMaxLevels)
    return Status::out_of_range(
        "max_levels " + std::to_string(max_levels) + " outside [1, " +
        std::to_string(TraceLimits::kMaxLevels) + "]");
  return Status::ok();
}

/// A level-`level` box of `hierarchy`: coordinates within bounds, hi >= lo
/// on every axis, and inside the level's domain, so a restore never
/// rasterizes a box outside every work grid built from the trace.
Status validate_trace_box(const amr::GridHierarchy& hierarchy, int level,
                          const amr::IntVec3& lo, const amr::IntVec3& hi) {
  const auto coord_ok = [](int c) {
    return c >= -TraceLimits::kMaxCoord && c <= TraceLimits::kMaxCoord;
  };
  if (!coord_ok(lo.x) || !coord_ok(lo.y) || !coord_ok(lo.z) ||
      !coord_ok(hi.x) || !coord_ok(hi.y) || !coord_ok(hi.z))
    return Status::out_of_range("box coordinate outside ±" +
                                std::to_string(TraceLimits::kMaxCoord));
  // GCC 12 misreads a literal + std::string&& as an overlapping memcpy
  // (-Wrestrict), so the messages are appended to std::string objects.
  const auto point = [](const amr::IntVec3& p) {
    return std::to_string(p.x) + "," + std::to_string(p.y) + "," +
           std::to_string(p.z);
  };
  const std::string extents =
      std::string("[").append(point(lo)).append("]..[").append(point(hi))
          .append("]");
  if (hi.x < lo.x || hi.y < lo.y || hi.z < lo.z)
    return Status::invalid(
        std::string("inverted box extents (hi < lo): ").append(extents));
  if (!hierarchy.in_level_domain(level, amr::Box(lo, hi)))
    return Status::out_of_range(std::string("level ")
                                    .append(std::to_string(level))
                                    .append(" box ")
                                    .append(extents)
                                    .append(" outside the level's domain"));
  return Status::ok();
}

void encode_levels(ByteWriter& writer, const amr::GridHierarchy& h) {
  writer.u32(static_cast<std::uint32_t>(h.num_levels()));
  // Level 0 is implicit (the full domain).
  for (int l = 1; l < h.num_levels(); ++l) {
    const auto& boxes = h.level(l).boxes;
    writer.u32(static_cast<std::uint32_t>(boxes.size()));
    for (const amr::Box& box : boxes) {
      writer.i32(box.lo().x);
      writer.i32(box.lo().y);
      writer.i32(box.lo().z);
      writer.i32(box.hi().x);
      writer.i32(box.hi().y);
      writer.i32(box.hi().z);
    }
  }
}

Status decode_levels(ByteReader& reader, amr::GridHierarchy& h) {
  const std::uint32_t num_levels =
      reader.count(0, static_cast<std::uint32_t>(h.max_levels()));
  if (!reader.ok()) return reader.status();
  if (num_levels < 1) return Status::invalid("hierarchy with zero levels");
  for (std::uint32_t l = 1; l < num_levels; ++l) {
    const std::uint32_t nboxes =
        reader.count(kBoxBytes, TraceLimits::kMaxBoxesPerLevel);
    if (!reader.ok()) return reader.status();
    std::vector<amr::Box> boxes;
    boxes.reserve(nboxes);
    for (std::uint32_t b = 0; b < nboxes; ++b) {
      amr::IntVec3 lo{reader.i32(), reader.i32(), reader.i32()};
      amr::IntVec3 hi{reader.i32(), reader.i32(), reader.i32()};
      if (!reader.ok()) return reader.status();
      if (Status status = validate_trace_box(h, static_cast<int>(l), lo, hi);
          !status.is_ok())
        return status;
      boxes.emplace_back(lo, hi);
    }
    h.set_level_boxes(static_cast<int>(l), std::move(boxes));
  }
  return Status::ok();
}

}  // namespace

void encode_trace(ByteWriter& writer, const amr::AdaptationTrace& trace) {
  if (trace.empty()) {
    writer.u32(0);
    return;
  }
  // The shared configuration is stored once, so every snapshot must agree
  // on it; the check runs before anything is written.
  const amr::GridHierarchy& first = trace.at(0).hierarchy;
  for (const amr::Snapshot& snapshot : trace.snapshots()) {
    const amr::GridHierarchy& h = snapshot.hierarchy;
    if (!(h.base_dims() == first.base_dims()) ||
        h.ratio() != first.ratio() || h.max_levels() != first.max_levels())
      throw std::invalid_argument(
          "encode_trace: snapshots disagree on configuration");
  }
  writer.u32(static_cast<std::uint32_t>(trace.size()));
  writer.i32(first.base_dims().x);
  writer.i32(first.base_dims().y);
  writer.i32(first.base_dims().z);
  writer.i32(first.ratio());
  writer.i32(first.max_levels());
  for (const amr::Snapshot& snapshot : trace.snapshots()) {
    writer.i32(snapshot.step);
    encode_levels(writer, snapshot.hierarchy);
  }
}

util::Expected<amr::AdaptationTrace> decode_trace(ByteReader& reader) {
  const std::uint32_t count =
      reader.count(sizeof(std::int32_t), TraceLimits::kMaxSnapshots);
  if (!reader.ok()) return reader.status();
  amr::AdaptationTrace trace;
  if (count == 0) return trace;
  amr::IntVec3 base{reader.i32(), reader.i32(), reader.i32()};
  const int ratio = reader.i32();
  const int max_levels = reader.i32();
  if (!reader.ok()) return reader.status();
  if (Status status = validate_trace_config(base, ratio, max_levels);
      !status.is_ok())
    return status;
  for (std::uint32_t i = 0; i < count; ++i) {
    const int step = reader.i32();
    if (!reader.ok()) return reader.status();
    amr::GridHierarchy h(base, ratio, max_levels);
    if (Status status = decode_levels(reader, h); !status.is_ok())
      return status;
    trace.add(amr::Snapshot{step, std::move(h)});
  }
  return trace;
}

}  // namespace pragma::io
