#include "pragma/amr/flags.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pragma::amr {

FlagField::FlagField(Box domain) : domain_(domain), dims_(domain.extent()) {
  if (domain.empty()) throw std::invalid_argument("FlagField: empty domain");
  cells_.assign(static_cast<std::size_t>(domain.volume()), 0);
}

std::size_t FlagField::index(IntVec3 p) const {
  const IntVec3 rel = p - domain_.lo();
  return (static_cast<std::size_t>(rel.z) * dims_.y +
          static_cast<std::size_t>(rel.y)) *
             static_cast<std::size_t>(dims_.x) +
         static_cast<std::size_t>(rel.x);
}

void FlagField::set(IntVec3 p, bool flagged) {
  if (!domain_.contains(p)) return;
  std::uint8_t& cell = cells_[index(p)];
  if (cell != static_cast<std::uint8_t>(flagged)) {
    count_ += flagged ? 1 : -1;
    cell = static_cast<std::uint8_t>(flagged);
  }
}

void FlagField::or_row(IntVec3 start, std::span<const std::uint8_t> row) {
  if (row.empty()) return;
  const IntVec3 last{start.x + static_cast<int>(row.size()) - 1, start.y,
                     start.z};
  if (!domain_.contains(start) || !domain_.contains(last))
    throw std::out_of_range("FlagField::or_row: row leaves the domain");
  std::uint8_t* cells = &cells_[index(start)];
  // A local count: a store through `cells` may alias the member.
  std::int64_t added = 0;
  for (std::size_t x = 0; x < row.size(); ++x) {
    const auto cell = static_cast<std::uint8_t>(cells[x] | (row[x] != 0));
    added += cell - cells[x];
    cells[x] = cell;
  }
  count_ += added;
}

bool FlagField::get(IntVec3 p) const {
  if (!domain_.contains(p)) return false;
  return cells_[index(p)] != 0;
}

void FlagField::clear() {
  cells_.assign(cells_.size(), 0);
  count_ = 0;
}

void FlagField::flag_where(const std::function<bool(IntVec3)>& predicate) {
  for (int z = domain_.lo().z; z < domain_.hi().z; ++z)
    for (int y = domain_.lo().y; y < domain_.hi().y; ++y)
      for (int x = domain_.lo().x; x < domain_.hi().x; ++x) {
        const IntVec3 p{x, y, z};
        if (predicate(p)) set(p);
      }
}

std::int64_t FlagField::count() const { return count_; }

std::int64_t FlagField::count_in(const Box& box) const {
  const Box clipped = domain_.intersection(box);
  std::int64_t total = 0;
  for (int z = clipped.lo().z; z < clipped.hi().z; ++z)
    for (int y = clipped.lo().y; y < clipped.hi().y; ++y)
      for (int x = clipped.lo().x; x < clipped.hi().x; ++x)
        total += cells_[index({x, y, z})];
  return total;
}

std::vector<std::int64_t> FlagField::signature(const Box& box,
                                               int axis) const {
  const Box clipped = domain_.intersection(box);
  if (clipped.empty()) return {};
  std::vector<std::int64_t> sig(
      static_cast<std::size_t>(clipped.extent()[axis]), 0);
  for (int z = clipped.lo().z; z < clipped.hi().z; ++z)
    for (int y = clipped.lo().y; y < clipped.hi().y; ++y)
      for (int x = clipped.lo().x; x < clipped.hi().x; ++x) {
        if (cells_[index({x, y, z})]) {
          const IntVec3 p{x, y, z};
          sig[static_cast<std::size_t>(p[axis] - clipped.lo()[axis])] += 1;
        }
      }
  return sig;
}

Box FlagField::minimal_bounding_box(const Box& box) const {
  const Box clipped = domain_.intersection(box);
  IntVec3 lo = clipped.hi();
  IntVec3 hi = clipped.lo();
  bool found = false;
  for (int z = clipped.lo().z; z < clipped.hi().z; ++z)
    for (int y = clipped.lo().y; y < clipped.hi().y; ++y)
      for (int x = clipped.lo().x; x < clipped.hi().x; ++x) {
        if (!cells_[index({x, y, z})]) continue;
        found = true;
        lo.x = std::min(lo.x, x);
        lo.y = std::min(lo.y, y);
        lo.z = std::min(lo.z, z);
        hi.x = std::max(hi.x, x + 1);
        hi.y = std::max(hi.y, y + 1);
        hi.z = std::max(hi.z, z + 1);
      }
  return found ? Box(lo, hi) : Box{};
}

FlagField::RegionScan FlagField::scan(const Box& region) const {
  RegionScan out;
  const Box clipped = domain_.intersection(region);
  if (clipped.empty()) return out;
  const IntVec3 lo = clipped.lo();
  const IntVec3 e = clipped.extent();
  const auto width = static_cast<std::size_t>(e.x);
  std::array<std::vector<std::int64_t>, 3> sig;
  for (int axis = 0; axis < 3; ++axis)
    sig[axis].assign(static_cast<std::size_t>(e[axis]), 0);
  for (int z = 0; z < e.z; ++z)
    for (int y = 0; y < e.y; ++y) {
      const std::uint8_t* row = &cells_[index({lo.x, lo.y + y, lo.z + z})];
      // Cells hold 0 or 1, so the first 1 starts the row's flags.
      const auto* first =
          static_cast<const std::uint8_t*>(std::memchr(row, 1, width));
      if (first == nullptr) continue;
      std::int64_t n = 0;
      for (auto x = static_cast<std::size_t>(first - row); x < width; ++x) {
        n += row[x];
        sig[0][x] += row[x];
      }
      sig[1][static_cast<std::size_t>(y)] += n;
      sig[2][static_cast<std::size_t>(z)] += n;
      out.count += n;
    }
  if (out.count == 0) return out;
  // The non-zero span of each signature is the bound's extent on that axis.
  IntVec3 bound_lo;
  IntVec3 bound_hi;
  const auto flagged = [](std::int64_t plane) { return plane != 0; };
  for (int axis = 0; axis < 3; ++axis) {
    const std::vector<std::int64_t>& s = sig[axis];
    const auto first = std::find_if(s.begin(), s.end(), flagged);
    const auto last = std::find_if(s.rbegin(), s.rend(), flagged).base();
    bound_lo[axis] = lo[axis] + static_cast<int>(first - s.begin());
    bound_hi[axis] = lo[axis] + static_cast<int>(last - s.begin());
    out.signatures[axis].assign(first, last);
  }
  out.bound = Box(bound_lo, bound_hi);
  return out;
}

}  // namespace pragma::amr
