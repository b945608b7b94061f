#include "pragma/partition/sfc.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace pragma::partition {

namespace {
/// Spread the low 21 bits of v so that bit i lands at position 3i.
std::uint64_t spread3(std::uint64_t v) {
  v &= 0x1fffff;
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}
}  // namespace

std::uint64_t morton_key(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                         int bits) {
  (void)bits;
  // z varies fastest along the curve (x in the highest interleaved bits),
  // matching the row-major storage convention of the grid levels.
  return spread3(z) | (spread3(y) << 1) | (spread3(x) << 2);
}

std::uint64_t hilbert_key(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                          int bits) {
  // Skilling's algorithm: convert coordinates to the "transposed" Hilbert
  // index in place, then interleave.
  std::uint32_t X[3] = {x, y, z};
  const std::uint32_t M = 1u << (bits - 1);

  // Inverse undo excess work.
  for (std::uint32_t Q = M; Q > 1; Q >>= 1) {
    const std::uint32_t P = Q - 1;
    for (int i = 0; i < 3; ++i) {
      if (X[i] & Q) {
        X[0] ^= P;  // invert
      } else {
        const std::uint32_t t = (X[0] ^ X[i]) & P;
        X[0] ^= t;
        X[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < 3; ++i) X[i] ^= X[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t Q = M; Q > 1; Q >>= 1)
    if (X[2] & Q) t ^= Q - 1;
  for (int i = 0; i < 3; ++i) X[i] ^= t;

  // Interleave: bit b of the key takes from X[axis] high-to-low.
  std::uint64_t key = 0;
  for (int b = bits - 1; b >= 0; --b)
    for (int axis = 0; axis < 3; ++axis) {
      key <<= 1;
      key |= (X[axis] >> b) & 1u;
    }
  return key;
}

int curve_bits(amr::IntVec3 dims) {
  const int m = std::max({dims.x, dims.y, dims.z});
  int bits = 1;
  while ((1 << bits) < m) ++bits;
  return bits;
}

namespace {
struct CurveCacheKey {
  amr::IntVec3 dims;
  CurveKind kind;
  bool operator==(const CurveCacheKey&) const = default;
};

struct CurveCacheKeyHash {
  std::size_t operator()(const CurveCacheKey& key) const {
    std::uint64_t h = static_cast<std::uint64_t>(key.dims.x);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(key.dims.y);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(key.dims.z);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(key.kind);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

std::vector<std::uint32_t> compute_curve_order(amr::IntVec3 dims,
                                               CurveKind kind) {
  const int bits = curve_bits(dims);
  const std::size_t count = static_cast<std::size_t>(dims.x) *
                            static_cast<std::size_t>(dims.y) *
                            static_cast<std::size_t>(dims.z);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(count);
  for (std::uint32_t z = 0; z < static_cast<std::uint32_t>(dims.z); ++z)
    for (std::uint32_t y = 0; y < static_cast<std::uint32_t>(dims.y); ++y)
      for (std::uint32_t x = 0; x < static_cast<std::uint32_t>(dims.x); ++x) {
        const std::uint64_t sfc_key = kind == CurveKind::kMorton
                                      ? morton_key(x, y, z, bits)
                                      : hilbert_key(x, y, z, bits);
        const std::uint32_t linear =
            x + static_cast<std::uint32_t>(dims.x) *
                    (y + static_cast<std::uint32_t>(dims.y) * z);
        keyed.emplace_back(sfc_key, linear);
      }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint32_t> order;
  order.reserve(count);
  for (const auto& [k, linear] : keyed) order.push_back(linear);
  return order;
}
}  // namespace

std::shared_ptr<const std::vector<std::uint32_t>> curve_order_shared(
    amr::IntVec3 dims, CurveKind kind) {
  if (dims.x <= 0 || dims.y <= 0 || dims.z <= 0)
    throw std::invalid_argument("curve_order: empty lattice");

  using OrderPtr = std::shared_ptr<const std::vector<std::uint32_t>>;
  static std::mutex mutex;
  static std::unordered_map<CurveCacheKey, OrderPtr, CurveCacheKeyHash> cache;

  const CurveCacheKey key{dims, kind};
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Compute outside the lock; a concurrent builder of the same key loses
  // the try_emplace race and its copy is dropped.
  auto order = std::make_shared<const std::vector<std::uint32_t>>(
      compute_curve_order(dims, kind));
  std::lock_guard<std::mutex> lock(mutex);
  return cache.try_emplace(key, std::move(order)).first->second;
}

std::vector<std::uint32_t> curve_order(amr::IntVec3 dims, CurveKind kind) {
  return *curve_order_shared(dims, kind);
}

}  // namespace pragma::partition
