// Binary codec for adaptation traces, the one persisted form of a trace.
//
// A checkpoint payload carries the run's adaptation trace (whose last
// snapshot is the current hierarchy) in this compact, deterministic form:
// the configuration shared by every snapshot (base dims, ratio, max
// levels) once, then per snapshot its step and levels of boxes.  Level 0
// is implicit.  Decoding treats the bytes as untrusted: every count is
// checked against both its cap and the remaining buffer before anything is
// allocated, and every box against its level's domain.  It builds
// validated GridHierarchy objects, so it is code rather than a field list.
#pragma once

#include "pragma/amr/hierarchy.hpp"
#include "pragma/amr/trace.hpp"
#include "pragma/io/serial.hpp"
#include "pragma/util/status.hpp"

namespace pragma::io {

/// Encode a whole adaptation trace.  Throws std::invalid_argument when
/// the snapshots disagree on base dims, ratio or max levels.  An empty
/// trace encodes as count 0.
void encode_trace(ByteWriter& writer, const amr::AdaptationTrace& trace);
/// Decode an untrusted trace: any malformed input returns a Status.
[[nodiscard]] util::Expected<amr::AdaptationTrace> decode_trace(
    ByteReader& reader);

}  // namespace pragma::io
