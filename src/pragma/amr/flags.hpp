// Refinement-flag field over a box region.
//
// The error estimator (here: the RM3D emulator's feature functions) tags
// cells needing refinement; the Berger–Rigoutsos clusterer turns tagged
// cells into patch boxes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pragma/amr/box.hpp"

namespace pragma::amr {

class FlagField {
 public:
  explicit FlagField(Box domain);

  [[nodiscard]] const Box& domain() const { return domain_; }

  void set(IntVec3 p, bool flagged = true);
  /// Flag the cells from `start` along +x where `row` is non-zero; a zero
  /// byte leaves its cell as it was.  The row must lie inside the domain.
  void or_row(IntVec3 start, std::span<const std::uint8_t> row);
  [[nodiscard]] bool get(IntVec3 p) const;
  void clear();

  /// Flag every cell for which `predicate(cell)` holds.
  void flag_where(const std::function<bool(IntVec3)>& predicate);

  [[nodiscard]] std::int64_t count() const;
  [[nodiscard]] std::int64_t count_in(const Box& box) const;
  [[nodiscard]] bool any() const { return count_ > 0; }

  /// Per-plane flagged-cell counts along `axis` within `box` — the
  /// "signatures" of the Berger–Rigoutsos algorithm.
  [[nodiscard]] std::vector<std::int64_t> signature(const Box& box,
                                                    int axis) const;

  /// Smallest box inside `box` containing all flagged cells (empty box if
  /// none).
  [[nodiscard]] Box minimal_bounding_box(const Box& box) const;

  /// What the Berger–Rigoutsos clusterer needs of one node, from a single
  /// pass over the contiguous x-rows of `region`.
  struct RegionScan {
    Box bound;                 ///< == minimal_bounding_box(region)
    std::int64_t count = 0;    ///< == count_in(bound)
    /// signatures[axis] == signature(bound, axis): every flag of the
    /// region lies inside the bound, so trimming the region's signatures
    /// to it loses nothing.  Empty when the region has no flags.
    std::array<std::vector<std::int64_t>, 3> signatures;
  };
  [[nodiscard]] RegionScan scan(const Box& region) const;

 private:
  [[nodiscard]] std::size_t index(IntVec3 p) const;
  Box domain_;
  IntVec3 dims_;
  std::vector<std::uint8_t> cells_;
  std::int64_t count_ = 0;
};

}  // namespace pragma::amr
