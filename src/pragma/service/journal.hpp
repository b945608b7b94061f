// Crash-durable pending-run journal: the admission write-ahead log.
//
// The scheduler's admission queue lives in memory, so before this layer a
// kill between Runtime admission and worker start silently lost every
// queued-but-unstarted RunSpec.  The journal closes that window: every
// admitted spec is serialized and appended — with a batched group-commit
// fsync — *before* submit() returns, completion/cancel appends a
// tombstone, and compaction rewrites the live set as a fresh sealed
// generation.  On startup, recovery replays the generations (validating
// every record, stopping at the first torn or bit-flipped frame, deduping
// by sequence and by RunSpec::journal_key) and hands the survivors back
// for resubmission, so a SIGKILL at any point between submit and
// completion loses nothing.  Execution is at-least-once; determinism
// (seeded runs, modeled costs) and checkpoint resume (persist.resume is
// forced on recovered specs with persistence enabled) fence the replay to
// effectively-once.
//
// On-disk layout: an io::GenerationDir of generation files, written with
// the same tmp/fsync/rename publish as io::CheckpointStore:
//
//   wal-00000001.pragma-wal
//   wal-00000002.pragma-wal     <- active generation, append-only
//
// Each file starts with a 16-byte sealed header and then holds
// self-delimiting records:
//
//   file header:  "PRGMWAL1" | u32 version | u32 CRC-32 of bytes [0,12)
//   record frame: "PJR1" | u32 type | u64 seq | u64 payload size
//                 | u32 payload CRC | u32 header CRC of bytes [0,28)
//                 | payload...
//
// type 1 = pending (payload: versioned RunSpec encoding), type 2 =
// tombstone (empty payload; the seq names the pending record it kills),
// type 3 = batch (payload: u32 count, then per item u64 seq | u64 size |
// RunSpec encoding — one frame, one payload CRC, one fsync for a whole
// submit_batch; the frame header's seq is the first item's).  A scan
// accepts the longest valid prefix of a file: the first frame that fails
// any check (magic, CRCs, declared size vs remaining bytes) ends the
// scan — torn tails from a crash mid-append are expected and benign.
// Batch frames expand into their individual pending records at scan
// time, so recovery replays them identically to single appends; a crash
// mid-batch loses the whole frame (its payload CRC cannot match),
// never half of it.  Compaction rewrites survivors as plain pending
// frames.
//
// Degradation ladder (loudest first):
//   1. saturation — the active generation exceeds max_active_bytes and
//      compaction cannot shrink it: append() sheds with
//      Status::unavailable carrying a retry-after hint;
//   2. journal-unwritable — an append hits EIO/ENOSPC: the journal
//      latches degraded mode, records a flight-recorder event and keeps
//      serving in-memory (admission continues, durability is honestly
//      lost until the disk recovers) instead of crashing the service.
//
// Everything is gated behind JournalConfig.enabled; with it false the
// service behaves byte-identically to a build without this layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pragma/io/checkpoint.hpp"
#include "pragma/service/run_spec.hpp"
#include "pragma/util/status.hpp"

namespace pragma::service {

/// Envelope constants, exposed for tests and the fuzzer.
inline constexpr char kJournalMagic[8] = {'P', 'R', 'G', 'M',
                                          'W', 'A', 'L', '1'};
inline constexpr std::uint32_t kJournalVersion = 1;
inline constexpr std::size_t kJournalFileHeaderBytes = 16;
inline constexpr char kJournalRecordMagic[4] = {'P', 'J', 'R', '1'};
inline constexpr std::size_t kJournalRecordHeaderBytes = 32;
/// Version tag of the RunSpec payload encoding (first u32 of the payload).
/// A payload of any other version fails to decode with kUnimplemented.
inline constexpr std::uint32_t kRunSpecPayloadVersion = 6;
inline constexpr std::uint64_t kDefaultJournalMaxPayloadBytes = 1ull << 20;

enum class JournalRecordType : std::uint32_t {
  kPending = 1,
  kTombstone = 2,
  /// One frame carrying many pending records (see the batch payload
  /// layout above).  Written by append_batch(); expanded back into
  /// individual kPending records by scan_journal_file().
  kBatch = 3,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kPending;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;  ///< empty for tombstones
};

/// Result of scanning one journal file image.  `records` is the longest
/// valid prefix; `valid_bytes` is where it ends; `tail` explains why the
/// scan stopped early (ok when the file ended exactly on a frame edge).
struct JournalScan {
  std::vector<JournalRecord> records;
  std::size_t valid_bytes = 0;
  util::Status tail = util::Status::ok();
};

/// Pure function over memory — the fuzzer entry point for the journal
/// loader.  Never trusts a length it just read; a hostile header cannot
/// demand more than `max_payload_bytes`.
[[nodiscard]] JournalScan scan_journal_file(
    const std::uint8_t* bytes, std::size_t size,
    std::uint64_t max_payload_bytes = kDefaultJournalMaxPayloadBytes);
[[nodiscard]] JournalScan scan_journal_file(
    const std::vector<std::uint8_t>& bytes,
    std::uint64_t max_payload_bytes = kDefaultJournalMaxPayloadBytes);

/// Sealed 16-byte file header for a fresh generation.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_file_header();
/// One framed record (header + payload), ready to append.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_record(
    JournalRecordType type, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload);
/// One kBatch frame carrying every item (each treated as a pending
/// record: its seq + payload).  The frame header's seq is the first
/// item's.  Exposed for tests and the fuzzer corpus.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_batch_record(
    const std::vector<JournalRecord>& items);

/// Versioned RunSpec (de)serialization for pending payloads.  The
/// encoding covers every RunSpec value field, so a decoded spec runs as
/// the submitted one did and equal payloads mean equal runs.  The four
/// non-value members — the custom callable, the shared trace, the
/// work-grid cache pointer and the process-wide obs config — cannot be
/// persisted, so only WorkloadKind::kManaged specs are recoverable
/// (others journal for accounting and are reported as unrecoverable at
/// recovery).
[[nodiscard]] std::vector<std::uint8_t> encode_run_spec(const RunSpec& spec);
[[nodiscard]] util::Expected<RunSpec> decode_run_spec(
    const std::vector<std::uint8_t>& payload);

struct JournalConfig {
  bool enabled = false;
  std::string dir = "pragma-journal";
  /// fsync (group-commit) every append before it returns.  Off trades the
  /// durability window for speed — records still reach the page cache.
  bool fsync = true;
  std::uint64_t max_payload_bytes = kDefaultJournalMaxPayloadBytes;
  /// Saturation cap on the active generation; beyond it (after an
  /// emergency compaction attempt) append() sheds Status::unavailable
  /// with a retry-after hint instead of growing without bound.
  std::uint64_t max_active_bytes = 256ull << 20;
  /// Auto-compaction trigger: at least this many tombstones AND
  /// tombstones >= compact_tombstone_ratio * records in the active
  /// generation.
  std::size_t compact_min_tombstones = 4096;
  double compact_tombstone_ratio = 0.5;
  /// Hint clients receive when the journal sheds on saturation.
  int shed_retry_after_ms = 100;

  // ---- test hooks (crash & fault injection; leave zero in production) --
  /// Simulate a crash during compact(): 1 = after writing the compacted
  /// tmp file but before rename (orphan left behind), 2 = after rename
  /// but before the old generations are deleted (overlapping live sets).
  int testing_crash_compact = 0;
  /// When set, every append() asks this hook first; a non-ok status is
  /// treated as the disk write failing (EIO injection).
  std::function<util::Status()> testing_append_error;
};

/// One recoverable pending run.
struct RecoveredRun {
  std::uint64_t seq = 0;
  RunSpec spec;
};

/// What recovery found across all generations.
struct JournalRecovery {
  std::vector<RecoveredRun> pending;  ///< decodable, runnable survivors
  /// Names of pendings whose tombstone made it to disk (completed or
  /// cancelled before the crash).
  std::vector<std::string> completed;
  std::size_t tombstoned = 0;
  /// Pending records that cannot be resubmitted: payload failed to
  /// decode, or the workload kind is not recoverable (custom callable,
  /// in-memory trace).
  std::size_t unrecoverable = 0;
  /// Files whose scan stopped before the end (torn tail, bit flip).
  std::size_t torn_files = 0;
  /// Duplicate pendings collapsed by RunSpec::journal_key or by seq
  /// overlap between generations (kill-during-compaction leftovers).
  std::size_t duplicates = 0;
};

struct JournalStats {
  std::uint64_t appends = 0;       ///< pending records (batch items count)
  std::uint64_t batch_appends = 0; ///< appends of two or more specs
  std::uint64_t tombstones = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t compactions = 0;
  std::uint64_t shed_saturated = 0;
  std::uint64_t degraded_appends = 0;  ///< appends served in-memory only
  std::uint64_t active_bytes = 0;
  std::size_t live_pending = 0;
  bool degraded = false;
};

/// The write-ahead journal.  Thread-safe; appends from concurrent
/// submitters share group-commit fsyncs (the first waiter syncs for
/// everyone whose bytes are already on the file).
class Journal {
 public:
  explicit Journal(JournalConfig config);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Scan existing generations, rebuild the live set, compact it into a
  /// fresh generation and open that generation for appends.  Must be
  /// called (successfully) exactly once before append()/tombstone().
  /// Returns what was recovered; an empty directory recovers nothing.
  [[nodiscard]] util::Expected<JournalRecovery> open();

  /// append_batch() of one: durably append a pending record for `spec`
  /// and return its sequence number.
  [[nodiscard]] util::Expected<std::uint64_t> append(const RunSpec& spec);

  /// Durably append pending records for every spec with ONE write and ONE
  /// group-commit fsync (kBatch frames, chunked to the payload cap; a
  /// chunk of one degenerates to a plain kPending frame).  All-or-nothing:
  /// saturation sheds the whole batch with Status::unavailable (retry-
  /// after hint attached), an oversized payload with kOutOfRange, and no
  /// sequence is consumed.  An I/O failure latches degraded mode and keeps
  /// serving (the returned seqs are then in-memory only).  Returns one
  /// sequence per spec, in order.
  [[nodiscard]] util::Expected<std::vector<std::uint64_t>> append_batch(
      const std::vector<const RunSpec*>& specs);

  /// Append a tombstone for `seq` (completion, failure or cancel).
  /// Unknown/duplicate seqs are harmless.  Best-effort in degraded mode.
  void tombstone(std::uint64_t seq);

  /// Rewrite the live pending set as a new sealed generation and delete
  /// the old ones.  Called automatically when tombstones accumulate and
  /// on saturation; callable explicitly.
  util::Status compact();

  [[nodiscard]] bool degraded() const;
  [[nodiscard]] JournalStats stats() const;
  [[nodiscard]] const JournalConfig& config() const { return config_; }
  /// Path of the active generation (tests inject corruption here).
  [[nodiscard]] std::string active_path() const;

 private:
  struct LivePending {
    std::string key;  ///< RunSpec::journal_key, for recovery dedupe
    std::string name;
    std::vector<std::uint8_t> payload;
  };

  /// Append raw framed bytes to the active fd.  Requires mu_.  On
  /// success *watermark receives the monotonic append watermark covering
  /// this write (a cross-generation byte counter, never reset, so a
  /// commit target survives compaction swapping files underneath it).
  util::Status write_frame(const std::vector<std::uint8_t>& frame,
                           std::uint64_t* watermark);
  /// Group-commit: ensure everything appended up to watermark `target`
  /// is fsynced.  The first waiter syncs for the whole batch; later
  /// waiters find synced_watermark_ already past their target.  Takes
  /// commit_mu_ only (never mu_ — lock order is mu_ then commit_mu_).
  util::Status commit(std::uint64_t target);
  /// Requires mu_.  Latch degraded mode with a loud event.
  void enter_degraded(const util::Status& cause);
  /// Requires mu_.  compact() body.
  util::Status compact_locked();

  JournalConfig config_;
  io::GenerationDir files_;

  mutable std::mutex mu_;  ///< file state + live set
  int fd_ = -1;  ///< written under mu_; fsynced under commit_mu_;
                 ///< swapped under both
  std::uint64_t active_generation_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t written_bytes_ = 0;  ///< bytes in the active file
  std::size_t tombstones_in_active_ = 0;
  std::size_t records_in_active_ = 0;
  std::map<std::uint64_t, LivePending> live_;
  bool opened_ = false;
  bool degraded_ = false;
  JournalStats stats_;
  /// Monotonic bytes-ever-appended counter (published under mu_, read
  /// lock-free by commit()).
  std::atomic<std::uint64_t> append_watermark_{0};
  std::atomic<std::uint64_t> fsync_count_{0};

  mutable std::mutex commit_mu_;  ///< group-commit; ordered after mu_
  std::uint64_t synced_watermark_ = 0;
};

}  // namespace pragma::service
