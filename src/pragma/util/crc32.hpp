// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used by the record log's frames (checkpoints and the journal) to detect
// torn writes and bit-flips.  Every checkpoint persist checksums its whole
// payload (tens of KiB, one per save-state), so the implementation is
// slicing-by-8: eight 256-entry tables fold one 8-byte block per step,
// and the tail goes byte by byte through the first (classic) table.  The
// polynomial, the init and final XOR and seed chaining are the standard
// ones, so every checksum equals the byte-at-a-time definition's.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pragma::util {

/// CRC of `size` bytes, continuing from `seed` (pass the previous return
/// value to checksum a buffer in chunks; the default starts a new stream).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

}  // namespace pragma::util
