// Space-filling curves: Morton (Z-order) and Hilbert orderings of a 3-D
// lattice.
//
// All of the paper's partitioners are built on inverse space-filling
// partitioning (ISP): map the 3-D domain onto a 1-D sequence via an SFC,
// then divide the sequence.  Hilbert ordering preserves locality better
// than Morton; the plain "SFC" partitioner in Table 4 uses Morton while the
// ISP family uses Hilbert.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pragma/amr/box.hpp"

namespace pragma::partition {

/// Morton (Z-order) key: interleave the low `bits` bits of x, y, z.
[[nodiscard]] std::uint64_t morton_key(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t z, int bits);

/// Hilbert key on a 2^bits cube (Skilling's transpose algorithm).
[[nodiscard]] std::uint64_t hilbert_key(std::uint32_t x, std::uint32_t y,
                                        std::uint32_t z, int bits);

enum class CurveKind { kMorton, kHilbert };

/// Visit order of an X×Y×Z lattice under an SFC: order[rank] = linear cell
/// index (x + X*(y + Y*z)).  The lattice is embedded in the enclosing
/// power-of-two cube; cells outside the lattice are skipped, which keeps
/// aligned power-of-two blocks contiguous in the order.
///
/// Orders are pure functions of (dims, kind) and are requested once per
/// WorkGrid construction — hundreds of times per trace replay — so they are
/// memoized in a mutex-guarded hash map and shared: every caller with the
/// same key receives the same immutable vector, with no per-hit copy.
[[nodiscard]] std::shared_ptr<const std::vector<std::uint32_t>>
curve_order_shared(amr::IntVec3 dims, CurveKind kind);

/// Copying convenience wrapper around curve_order_shared().
[[nodiscard]] std::vector<std::uint32_t> curve_order(amr::IntVec3 dims,
                                                     CurveKind kind);

/// Smallest b with 2^b >= max extent.
[[nodiscard]] int curve_bits(amr::IntVec3 dims);

}  // namespace pragma::partition
