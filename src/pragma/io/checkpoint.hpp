// Durable files: the record log and the checkpoint store.
//
// The record log is the one durable file format.  The admission journal
// (service/journal.hpp) and the checkpoint store keep their state as logs
// of CRC-sealed frames in a GenerationDir of numbered files:
//
//   file header:  "PRGMWAL1" | u32 version | u32 CRC-32 of bytes [0,12)
//   record frame: "PJR1" | u32 type | u64 seq | u64 payload size
//                 | u32 payload CRC | u32 header CRC of bytes [0,28)
//                 | payload...
//
// Frame types 1-3 are the journal's (pending, tombstone, batch) and 4 is
// a checkpoint record; each reader names the types it knows.  A scan
// accepts the longest valid prefix of a file: the first frame that fails
// any check (magic, header CRC, a type its reader does not know, a
// declared size above the cap or past the remaining bytes, payload CRC,
// or the reader's own check) ends the scan.  A torn tail from a crash
// mid-append is therefore expected and costs only the frames after it.
//
// The paper's CA actuators can "save component execution state";
// CheckpointStore makes that actuator real.  A run's checkpoints are one
// log of generations (ckpt-00000001.pragma, …).  Each write() appends the
// whole payload as one record (seq 0) to the active generation and
// fsyncs it, so it returns only once the record is durable.  It starts a
// new generation instead, the log header plus this record written as tmp
// + fsync + rename + directory fsync, on the store's first write, after a
// failed write, and when the append would take the generation past
// kCheckpointGenerationMultiple times this record's size; then it deletes
// the generations beyond keep_last_n.  Every record is a full payload, so
// starting a generation is the whole compaction, and a store never
// appends after a tail it did not write.
//
// records() returns the valid records newest first: a torn tail or a
// bit-flipped newest record falls back to the record before it, and a bad
// generation header to the previous generation.  A crash mid-publish
// leaves only a ".tmp" orphan, which nothing reads.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "pragma/util/status.hpp"

namespace pragma::io {

inline constexpr char kLogMagic[8] = {'P', 'R', 'G', 'M', 'W', 'A', 'L', '1'};
inline constexpr std::uint32_t kLogVersion = 1;
inline constexpr std::size_t kLogHeaderBytes = 16;
inline constexpr char kLogFrameMagic[4] = {'P', 'J', 'R', '1'};
inline constexpr std::size_t kLogFrameHeaderBytes = 32;

/// A frame that passed every check of the format.  `payload` points into
/// the scanned image; `offset` is where the frame starts in it.
struct LogFrame {
  std::uint32_t type = 0;
  std::uint64_t seq = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
  std::size_t offset = 0;
};

/// Where a scan stopped: `valid_bytes` ends the longest valid prefix and
/// `tail` says why (ok when the image ended exactly on a frame edge).
struct LogScan {
  std::size_t valid_bytes = 0;
  util::Status tail = util::Status::ok();
};

/// The sealed 16-byte header of a fresh log file.
[[nodiscard]] std::vector<std::uint8_t> encode_log_header();
/// One frame (header + payload), ready to append.
[[nodiscard]] std::vector<std::uint8_t> encode_log_frame(
    std::uint32_t type, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload);

/// Scan a log image.  `types` are the frame types the reader knows;
/// `take` sees each frame that passed every check, in order, and a
/// non-ok status from it ends the scan at that frame.  Never trusts a
/// length it just read: a hostile header cannot make a reader allocate
/// more than `max_payload_bytes`.
[[nodiscard]] LogScan scan_log(
    const std::uint8_t* bytes, std::size_t size,
    std::uint64_t max_payload_bytes, std::span<const std::uint32_t> types,
    const std::function<util::Status(const LogFrame&)>& take);

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
  /// Append `bytes` to the published generation and fsync it.
  util::Status append(std::uint64_t generation,
                      const std::vector<std::uint8_t>& bytes) const;
  /// The whole file: kNotFound when it cannot be opened, kInternal when it
  /// cannot be stat'ed or read in full.
  [[nodiscard]] util::Expected<std::vector<std::uint8_t>> read(
      std::uint64_t generation) const;
};

/// The frame type of a checkpoint record; the journal's types are 1-3.
inline constexpr std::uint32_t kCheckpointRecordType = 4;
/// A generation ends before an append would take it past this many times
/// the appended record's size.
inline constexpr std::uint64_t kCheckpointGenerationMultiple = 8;
/// Default cap on accepted payload size: a hostile header cannot make the
/// loader allocate more than this.
inline constexpr std::uint64_t kDefaultMaxPayloadBytes = 64ull << 20;

/// One checkpoint record: its payload, the generation that holds it and
/// where its frame starts in that generation's file.
struct CheckpointRecord {
  std::uint64_t generation = 0;
  std::size_t offset = 0;
  std::vector<std::uint8_t> payload;
};

/// The checkpoint records of one generation image, oldest first, appended
/// to `records` (with generation 0).  Pure function over memory — the
/// fuzzer entry point for the checkpoint loader.
LogScan scan_checkpoint_log(const std::uint8_t* bytes, std::size_t size,
                            std::uint64_t max_payload_bytes,
                            std::vector<CheckpointRecord>& records);

struct CheckpointStoreOptions {
  std::string dir;
  /// Retention window: generations kept on disk, each holding up to about
  /// kCheckpointGenerationMultiple records.  Minimum 1; older generations
  /// are deleted when a new one is published.
  int keep_last_n = 2;
  std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes;
};

class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointStoreOptions options);

  /// Durably write `payload` as the newest record (see above).
  util::Status write(const std::vector<std::uint8_t>& payload);

  /// Every valid record on disk, newest first across generations.  A
  /// generation whose scan stopped early (or could not be read) is logged
  /// and counted in `*torn` when non-null; its valid prefix still counts.
  [[nodiscard]] std::vector<CheckpointRecord> records(
      std::size_t* torn = nullptr) const;

  /// Generations present on disk (validated or not), ascending.
  [[nodiscard]] std::vector<std::uint64_t> generations() const {
    return files_.list();
  }
  [[nodiscard]] std::string path_for(std::uint64_t generation) const {
    return files_.path_for(generation);
  }

 private:
  util::Status write_impl(const std::vector<std::uint8_t>& payload);
  /// Publish a generation holding only `frame`, then trim the oldest
  /// generations beyond keep_last_n.
  util::Status start_generation(const std::vector<std::uint8_t>& frame);

  CheckpointStoreOptions options_;
  GenerationDir files_;
  /// The generation this store appends to; 0 until its first write and
  /// after a failed one.
  std::uint64_t active_ = 0;
  std::uint64_t active_bytes_ = 0;
};

}  // namespace pragma::io
