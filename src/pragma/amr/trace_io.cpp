#include "pragma/amr/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pragma::amr {

namespace {
constexpr const char* kMagic = "pragma-trace";
constexpr int kVersion = 1;

using util::Status;
}  // namespace

Status validate_trace_config(IntVec3 base_dims, int ratio, int max_levels) {
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

Status validate_trace_box(const GridHierarchy& hierarchy, int level,
                          const IntVec3& lo, const IntVec3& hi) {
  const auto coord_ok = [](int c) {
    return c >= -TraceLimits::kMaxCoord && c <= TraceLimits::kMaxCoord;
  };
  if (!coord_ok(lo.x) || !coord_ok(lo.y) || !coord_ok(lo.z) ||
      !coord_ok(hi.x) || !coord_ok(hi.y) || !coord_ok(hi.z))
    return Status::out_of_range("box coordinate outside ±" +
                                std::to_string(TraceLimits::kMaxCoord));
  // GCC 12 misreads a literal + std::string&& as an overlapping memcpy
  // (-Wrestrict), so the messages are appended to std::string objects.
  const auto point = [](const IntVec3& p) {
    return std::to_string(p.x) + "," + std::to_string(p.y) + "," +
           std::to_string(p.z);
  };
  const std::string extents =
      std::string("[").append(point(lo)).append("]..[").append(point(hi))
          .append("]");
  if (hi.x < lo.x || hi.y < lo.y || hi.z < lo.z)
    return Status::invalid(
        std::string("inverted box extents (hi < lo): ").append(extents));
  if (!hierarchy.in_level_domain(level, Box(lo, hi)))
    return Status::out_of_range(std::string("level ")
                                    .append(std::to_string(level))
                                    .append(" box ")
                                    .append(extents)
                                    .append(" outside the level's domain"));
  return Status::ok();
}

void save_trace(std::ostream& os, const AdaptationTrace& trace) {
  if (trace.empty())
    throw std::invalid_argument("save_trace: empty trace");
  const GridHierarchy& first = trace.at(0).hierarchy;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const GridHierarchy& h = trace.at(i).hierarchy;
    if (!(h.base_dims() == first.base_dims()) ||
        h.ratio() != first.ratio() || h.max_levels() != first.max_levels())
      throw std::invalid_argument(
          "save_trace: snapshots disagree on configuration");
  }

  os << kMagic << ' ' << kVersion << '\n';
  os << "config " << first.base_dims().x << ' ' << first.base_dims().y
     << ' ' << first.base_dims().z << ' ' << first.ratio() << ' '
     << first.max_levels() << '\n';
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Snapshot& snapshot = trace.at(i);
    os << "snapshot " << snapshot.step << ' '
       << snapshot.hierarchy.num_levels() << '\n';
    // Level 0 is implicit (the full domain).
    for (int l = 1; l < snapshot.hierarchy.num_levels(); ++l) {
      const GridLevel& level = snapshot.hierarchy.level(l);
      os << "level " << l << ' ' << level.boxes.size() << '\n';
      for (const Box& box : level.boxes)
        os << "box " << box.lo().x << ' ' << box.lo().y << ' '
           << box.lo().z << ' ' << box.hi().x << ' ' << box.hi().y << ' '
           << box.hi().z << '\n';
    }
  }
}

util::Expected<AdaptationTrace> try_load_trace(std::istream& is) {
  const auto fail = [](const std::string& message) {
    return Status::invalid("load_trace: " + message);
  };

  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic)
    return fail("bad header");
  if (version != kVersion)
    return Status::unimplemented("load_trace: unsupported version " +
                                 std::to_string(version));

  std::string keyword;
  if (!(is >> keyword) || keyword != "config") return fail("missing config");
  IntVec3 base;
  int ratio = 0;
  int max_levels = 0;
  if (!(is >> base.x >> base.y >> base.z >> ratio >> max_levels))
    return fail("bad config");
  if (Status status = validate_trace_config(base, ratio, max_levels);
      !status.is_ok())
    return status;

  AdaptationTrace trace;
  while (is >> keyword) {
    if (keyword != "snapshot")
      return fail("expected snapshot, got " + keyword);
    if (trace.size() >= TraceLimits::kMaxSnapshots)
      return Status::out_of_range("load_trace: more than " +
                                  std::to_string(TraceLimits::kMaxSnapshots) +
                                  " snapshots");
    int step = 0;
    int num_levels = 0;
    if (!(is >> step >> num_levels)) return fail("bad snapshot header");
    // Cross-check the per-snapshot level count against the configured
    // maximum — a snapshot cannot be deeper than its own hierarchy allows.
    if (num_levels < 1 || num_levels > max_levels)
      return Status::out_of_range(
          "load_trace: snapshot num_levels " + std::to_string(num_levels) +
          " outside [1, max_levels=" + std::to_string(max_levels) + "]");
    GridHierarchy hierarchy(base, ratio, max_levels);
    for (int l = 1; l < num_levels; ++l) {
      int level_index = 0;
      long long nboxes = -1;
      if (!(is >> keyword >> level_index >> nboxes) || keyword != "level" ||
          level_index != l)
        return fail("bad level header");
      if (nboxes < 0 ||
          nboxes > static_cast<long long>(TraceLimits::kMaxBoxesPerLevel))
        return Status::out_of_range(
            "load_trace: level " + std::to_string(l) + " declares " +
            std::to_string(nboxes) + " boxes (cap " +
            std::to_string(TraceLimits::kMaxBoxesPerLevel) + ")");
      std::vector<Box> boxes;
      boxes.reserve(static_cast<std::size_t>(nboxes));
      for (long long b = 0; b < nboxes; ++b) {
        IntVec3 lo;
        IntVec3 hi;
        if (!(is >> keyword >> lo.x >> lo.y >> lo.z >> hi.x >> hi.y >>
              hi.z) ||
            keyword != "box")
          return fail("bad box");
        if (Status status = validate_trace_box(hierarchy, l, lo, hi);
            !status.is_ok())
          return status;
        boxes.emplace_back(lo, hi);
      }
      hierarchy.set_level_boxes(l, std::move(boxes));
    }
    trace.add(Snapshot{step, std::move(hierarchy)});
  }
  if (trace.empty()) return fail("no snapshots");
  return trace;
}

util::Expected<AdaptationTrace> try_load_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::not_found("load_trace: cannot open " + path);
  return try_load_trace(is);
}

void save_trace_file(const std::string& path, const AdaptationTrace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_trace_file: cannot open " + path);
  save_trace(os, trace);
}

}  // namespace pragma::amr
