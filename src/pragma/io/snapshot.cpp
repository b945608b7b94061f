#include "pragma/io/snapshot.hpp"

#include "pragma/amr/trace_io.hpp"

namespace pragma::io {

namespace {

using amr::TraceLimits;

/// Per-box wire size: six i32 coordinates.
constexpr std::size_t kBoxBytes = 6 * sizeof(std::int32_t);

void encode_levels(ByteWriter& writer, const amr::GridHierarchy& h) {
  writer.u32(static_cast<std::uint32_t>(h.num_levels()));
  // Level 0 is implicit (the full domain), as in the text format.
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

util::Status decode_levels(ByteReader& reader, amr::GridHierarchy& h) {
  const std::uint32_t num_levels =
      reader.count(0, static_cast<std::uint32_t>(h.max_levels()));
  if (!reader.ok()) return reader.status();
  if (num_levels < 1)
    return util::Status::invalid("hierarchy with zero levels");
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
      if (util::Status status = amr::validate_trace_box(
              h, static_cast<int>(l), lo, hi);
          !status.is_ok())
        return status;
      boxes.emplace_back(lo, hi);
    }
    h.set_level_boxes(static_cast<int>(l), std::move(boxes));
  }
  return util::Status::ok();
}

}  // namespace

void encode_trace(ByteWriter& writer, const amr::AdaptationTrace& trace) {
  writer.u32(static_cast<std::uint32_t>(trace.size()));
  if (trace.empty()) return;
  // The shared configuration is stored once (save_trace enforces that all
  // snapshots agree on it).
  const amr::GridHierarchy& first = trace.at(0).hierarchy;
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
  if (util::Status status = amr::validate_trace_config(base, ratio,
                                                       max_levels);
      !status.is_ok())
    return status;
  for (std::uint32_t i = 0; i < count; ++i) {
    const int step = reader.i32();
    if (!reader.ok()) return reader.status();
    amr::GridHierarchy h(base, ratio, max_levels);
    if (util::Status status = decode_levels(reader, h); !status.is_ok())
      return status;
    trace.add(amr::Snapshot{step, std::move(h)});
  }
  return trace;
}

}  // namespace pragma::io
