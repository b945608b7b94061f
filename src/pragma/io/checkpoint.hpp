// Durable, crash-consistent checkpoint files.
//
// The paper's CA actuators can "save component execution state"; this is
// the layer that makes that actuator real.  A checkpoint is an opaque
// payload wrapped in a fixed 32-byte envelope:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     8  magic "PRGMCKP1"
//        8     4  format version (little-endian u32, currently 1)
//       12     4  flags (reserved, must be zero)
//       16     8  payload size in bytes (u64)
//       24     4  CRC-32 of the payload (IEEE)
//       28     4  CRC-32 of bytes [0, 28) — seals the header itself
//       32     …  payload
//
// A file is accepted only when *every* check passes: size, magic, header
// CRC, version, declared-vs-actual payload size, payload CRC.  Torn
// writes (short file), bit-flips (either CRC) and future versions are all
// detected before a byte of payload is interpreted.
//
// CheckpointStore manages a GenerationDir of numbered generations
// (ckpt-00000001.pragma, ckpt-00000002.pragma, …) written via the
// classic crash-consistent sequence: write to a ".tmp" name, fsync the
// file, rename() into place, fsync the directory.  A crash mid-write
// leaves only a ".tmp" orphan which the loader never reads;
// load_latest_valid() walks generations newest-first and returns the
// first one that validates, so a corrupted newest generation falls back
// to its predecessor instead of taking the run down.  The service's
// admission journal keeps its generations in a GenerationDir too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pragma/util/status.hpp"

namespace pragma::io {

/// Envelope constants, exposed for tests and fuzzers.
inline constexpr char kCheckpointMagic[8] = {'P', 'R', 'G', 'M',
                                             'C', 'K', 'P', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::size_t kCheckpointHeaderBytes = 32;
/// Default cap on accepted payload size: a hostile header cannot make the
/// loader allocate more than this.
inline constexpr std::uint64_t kDefaultMaxPayloadBytes = 64ull << 20;

/// EINTR-safe full write of `size` bytes to `fd`; `what` names the file
/// in the error.
util::Status write_all(int fd, const std::uint8_t* bytes, std::size_t size,
                       const std::string& what);

/// A directory of numbered generation files named
/// "<prefix><8-digit generation><suffix>", published crash-consistently:
/// write_tmp() writes and fsyncs "<path>.tmp", publish() renames it into
/// place and fsyncs the directory.  A crash before the rename leaves a
/// ".tmp" orphan that list() never returns.
struct GenerationDir {
  std::string dir;
  std::string prefix;
  std::string suffix;

  [[nodiscard]] std::string path_for(std::uint64_t generation) const;
  /// Generations present on disk (validated or not), ascending.
  [[nodiscard]] std::vector<std::uint64_t> list() const;
  /// Write `bytes` to the generation's tmp file and fsync it; the tmp
  /// file is removed on failure.
  util::Status write_tmp(std::uint64_t generation,
                         const std::vector<std::uint8_t>& bytes) const;
  /// Rename the tmp file into place and fsync the directory; the tmp
  /// file is removed when the rename fails.
  util::Status publish(std::uint64_t generation) const;
  /// The whole file: kNotFound when it cannot be opened, kOutOfRange when
  /// it is larger than `max_bytes` (checked before reading), kInternal
  /// when it cannot be stat'ed or read in full.
  [[nodiscard]] util::Expected<std::vector<std::uint8_t>> read(
      std::uint64_t generation,
      std::uint64_t max_bytes = UINT64_MAX) const;
};

/// Wrap `payload` in the checkpoint envelope.
[[nodiscard]] std::vector<std::uint8_t> encode_envelope(
    const std::vector<std::uint8_t>& payload);

/// Validate `bytes` and extract the payload.  Pure function over memory —
/// the fuzzer entry point for the checkpoint loader.
[[nodiscard]] util::Expected<std::vector<std::uint8_t>> decode_envelope(
    const std::uint8_t* bytes, std::size_t size,
    std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes);
[[nodiscard]] util::Expected<std::vector<std::uint8_t>> decode_envelope(
    const std::vector<std::uint8_t>& bytes,
    std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes);

struct CheckpointStoreOptions {
  std::string dir;
  /// Retention window: generations kept on disk; older ones are garbage-
  /// collected after a successful write (or an explicit gc() call).
  /// Minimum 1; keep ≥ 2 so a corrupted newest generation still has a
  /// fallback.  GC never deletes the newest generation that validates,
  /// even when it falls outside the window.
  int keep_last_n = 2;
  std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes;
};

/// A loaded checkpoint: which generation it came from plus its payload.
struct LoadedCheckpoint {
  std::uint64_t generation = 0;
  std::vector<std::uint8_t> payload;
};

class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointStoreOptions options);

  /// Durably write `payload` as the next generation (tmp + fsync + rename
  /// + directory fsync), then trim generations beyond keep_last_n.  The
  /// new generation is the newest and the window keeps at least one, so
  /// the trim needs none of gc()'s validation.
  util::Status write(const std::vector<std::uint8_t>& payload);

  /// Trim the directory to the keep_last_n retention window, oldest
  /// first.  The newest generation that passes full validation is always
  /// retained — GC can never delete the latest recoverable state, no
  /// matter how the window is set or how many newer torn/corrupt files
  /// exist.  Best-effort (a failed unlink only wastes disk); returns the
  /// number of files removed.
  int gc();

  /// Newest generation that passes full validation.  Generations that
  /// fail are logged and skipped (and reported via `rejected` when
  /// non-null); kNotFound when none validates.
  [[nodiscard]] util::Expected<LoadedCheckpoint> load_latest_valid(
      int* rejected = nullptr) const;

  /// Read + validate one specific generation.
  [[nodiscard]] util::Expected<LoadedCheckpoint> load_generation(
      std::uint64_t generation) const;

  /// Generations present on disk (validated or not), ascending.
  [[nodiscard]] std::vector<std::uint64_t> generations() const {
    return files_.list();
  }

  /// Next generation number a write() would use.
  [[nodiscard]] std::uint64_t next_generation() const;

  [[nodiscard]] std::string path_for(std::uint64_t generation) const {
    return files_.path_for(generation);
  }
  [[nodiscard]] const CheckpointStoreOptions& options() const {
    return options_;
  }

 private:
  util::Status write_impl(const std::vector<std::uint8_t>& payload);
  /// Delete the oldest of `existing` beyond keep_last_n, never `spared`.
  int trim(const std::vector<std::uint64_t>& existing, std::uint64_t spared);

  CheckpointStoreOptions options_;
  GenerationDir files_;
};

}  // namespace pragma::io
