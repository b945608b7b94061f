// Binary codec for the adaptation trace inside checkpoint payloads.
//
// The checkpoint payload needs the adaptation trace (whose last snapshot
// is the current hierarchy) in a compact, deterministic form.  The codec
// mirrors the text trace format (config, then per-snapshot levels of
// boxes) but is binary, and shares the same TraceLimits validation caps:
// a decoded count is checked against both its cap and the remaining
// buffer before anything is allocated.  It builds validated
// GridHierarchy objects, so it is code rather than a field list.
#pragma once

#include "pragma/amr/hierarchy.hpp"
#include "pragma/amr/trace.hpp"
#include "pragma/io/serial.hpp"
#include "pragma/util/status.hpp"

namespace pragma::io {

/// Encode/decode a whole adaptation trace.
void encode_trace(ByteWriter& writer, const amr::AdaptationTrace& trace);
[[nodiscard]] util::Expected<amr::AdaptationTrace> decode_trace(
    ByteReader& reader);

}  // namespace pragma::io
