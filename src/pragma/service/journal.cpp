#include "pragma/service/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <unordered_map>

#include "pragma/core/run_snapshot.hpp"
#include "pragma/io/serial.hpp"
#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/service/admission.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::service {

namespace fs = std::filesystem;
using io::get_u32;
using io::get_u64;
using io::put_u32;
using io::put_u64;

namespace {

obs::Counter& appends_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.appends");
  return counter;
}
obs::Counter& batch_appends_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.batch_appends");
  return counter;
}
obs::Counter& tombstones_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.tombstones");
  return counter;
}
obs::Counter& compactions_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.compactions");
  return counter;
}
obs::Counter& shed_saturated_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.shed_saturated");
  return counter;
}
obs::Counter& degraded_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.degraded_events");
  return counter;
}
obs::Counter& recovered_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.journal.recovered_runs");
  return counter;
}
obs::Histogram& fsync_histogram() {
  static obs::Histogram& histogram = obs::metrics().histogram(
      "service.journal.fsync_seconds",
      obs::HistogramOptions::exponential(1e-5, 4.0, 12));
  return histogram;
}

}  // namespace

// ---------------------------------------------------------------------------
// Journal records in io's log frames
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_journal_record(
    JournalRecordType type, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload) {
  return io::encode_log_frame(static_cast<std::uint32_t>(type), seq, payload);
}

std::vector<std::uint8_t> encode_journal_batch_record(
    const std::vector<JournalRecord>& items) {
  // Payload: u32 count | per item: u64 seq | u64 payload size | payload.
  std::size_t total = 4;
  for (const JournalRecord& item : items) total += 16 + item.payload.size();
  std::vector<std::uint8_t> payload(total);
  put_u32(payload.data(), static_cast<std::uint32_t>(items.size()));
  std::size_t pos = 4;
  for (const JournalRecord& item : items) {
    put_u64(payload.data() + pos, item.seq);
    put_u64(payload.data() + pos + 8, item.payload.size());
    if (!item.payload.empty())
      std::memcpy(payload.data() + pos + 16, item.payload.data(),
                  item.payload.size());
    pos += 16 + item.payload.size();
  }
  return encode_journal_record(JournalRecordType::kBatch,
                               items.empty() ? 0 : items.front().seq,
                               payload);
}

namespace {

constexpr std::uint32_t kJournalRecordTypes[] = {
    static_cast<std::uint32_t>(JournalRecordType::kPending),
    static_cast<std::uint32_t>(JournalRecordType::kTombstone),
    static_cast<std::uint32_t>(JournalRecordType::kBatch)};

/// Append a batch frame's pending records.  The frame passed both CRCs,
/// so a malformed interior means a corrupted-yet-CRC-consistent image (or
/// an encoder bug): the scan stops at this frame's edge without surfacing
/// any of its partial records.
util::Status expand_batch(const io::LogFrame& frame,
                          std::vector<JournalRecord>& records) {
  const std::size_t first = records.size();
  std::size_t pos = 4;
  bool well_formed = frame.size >= pos;
  const std::uint32_t count = well_formed ? get_u32(frame.payload) : 0;
  for (std::uint32_t k = 0; well_formed && k < count; ++k) {
    const std::uint8_t* item = frame.payload + pos;
    well_formed = frame.size - pos >= 16 &&
                  get_u64(item + 8) <= frame.size - pos - 16;
    if (!well_formed) break;
    const auto size = static_cast<std::size_t>(get_u64(item + 8));
    records.push_back(
        JournalRecord{JournalRecordType::kPending, get_u64(item),
                      std::vector<std::uint8_t>(item + 16, item + 16 + size)});
    pos += 16 + size;
  }
  if (well_formed && pos == frame.size) return util::Status::ok();
  records.resize(first);
  return util::Status::data_loss("malformed batch record interior at offset " +
                                 std::to_string(frame.offset));
}

}  // namespace

JournalScan scan_journal_file(const std::uint8_t* bytes, std::size_t size,
                              std::uint64_t max_payload_bytes) {
  JournalScan scan;
  static_cast<io::LogScan&>(scan) = io::scan_log(
      bytes, size, max_payload_bytes, kJournalRecordTypes,
      [&scan](const io::LogFrame& frame) {
        const auto type = static_cast<JournalRecordType>(frame.type);
        if (type == JournalRecordType::kBatch)
          return expand_batch(frame, scan.records);
        scan.records.push_back(JournalRecord{
            type, frame.seq,
            std::vector<std::uint8_t>(frame.payload,
                                      frame.payload + frame.size)});
        return util::Status::ok();
      });
  return scan;
}

JournalScan scan_journal_file(const std::vector<std::uint8_t>& bytes,
                              std::uint64_t max_payload_bytes) {
  return scan_journal_file(bytes.data(), bytes.size(), max_payload_bytes);
}

// ---------------------------------------------------------------------------
// RunSpec payload codec
// ---------------------------------------------------------------------------

namespace {

/// Every RunSpec value field (all but trace, custom, workgrid_cache and
/// obs), once, in wire order and at its wire width: the run-shaping
/// ManagedRunConfig values are core::run_fields, the list the checkpoint
/// fingerprint hashes.  io::FieldWriter encodes the list and
/// io::FieldReader decodes it, so the two directions cannot disagree.  A
/// change here changes the payload: bump kRunSpecPayloadVersion and
/// regenerate fuzz/corpus/journal.
template <class Io, class Spec>
void run_spec_fields(Io& io, Spec& spec) {
  const auto each_f64 = [&io](auto& value) { io.f64(value); };

  // identity & scheduling
  io.str(spec.name);
  io.str(spec.tenant);
  io.i32(spec.priority);
  io.code(spec.kind, WorkloadKind::kCustom, "workload kind");

  core::run_fields(io, spec);

  // persistence
  io.flag(spec.persist.enabled);
  io.str(spec.persist.dir);
  io.flag(spec.persist.resume);
  io.i32(spec.persist.keep_last_n);

  // federation
  io.u64(spec.sites);
  io.f64(spec.wan_mbps);

  // replay / system-sensitive knobs
  io.str(spec.strategy);
  io.list(spec.targets, sizeof(double), 4096, each_f64);
  io.f64(spec.stale_weight);
  io.f64(spec.repartition_threshold);
  io.i32(spec.threads);
  io.flag(spec.dynamic_capacities);

  // failure injection
  io.list(spec.failures, 2 * sizeof(double) + sizeof(std::uint64_t), 4096,
          [&io](auto& plan) {
            io.f64(plan.at_s);
            io.u64(plan.node);
            io.f64(plan.downtime_s);
          });

  // resource budget
  io.f64(spec.budget.cpu_s);
  io.u64(spec.budget.mem_bytes);
  io.u64(spec.budget.io_bytes);
  io.f64(spec.budget.wall_s);
  io.code(spec.budget.action, res::ResourceBudget::Action::kThrottle,
          "budget action");
  io.f64(spec.budget.throttle_factor);
}

}  // namespace

std::vector<std::uint8_t> encode_run_spec(const RunSpec& spec) {
  io::FieldWriter io;
  io.out.u32(kRunSpecPayloadVersion);
  run_spec_fields(io, spec);
  return io.out.take();
}

util::Expected<RunSpec> decode_run_spec(
    const std::vector<std::uint8_t>& payload) {
  io::FieldReader io(payload);
  const std::uint32_t version = io.in.u32();
  if (io.in.ok() && version != kRunSpecPayloadVersion)
    return util::Status::unimplemented("run-spec payload version " +
                                       std::to_string(version));
  RunSpec spec;
  run_spec_fields(io, spec);
  if (io.in.ok() && !io.in.at_end())
    io.in.fail("trailing bytes after run-spec payload");
  if (!io.in.ok()) return io.in.status();
  return spec;
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

Journal::Journal(JournalConfig config)
    : config_(std::move(config)), files_{config_.dir, "wal-", ".pragma-wal"} {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Journal::active_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.path_for(active_generation_);
}

util::Expected<JournalRecovery> Journal::open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_)
    return util::Status::failed_precondition("journal already open");

  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec)
    return util::Status::internal("cannot create journal dir " + config_.dir +
                                  ": " + ec.message());

  JournalRecovery recovery;

  // Replay every generation, oldest first.  Sequence numbers are assigned
  // once and preserved across compactions, so overlapping generations (a
  // crash between the compacted rename and the old-generation delete)
  // dedupe naturally: the first occurrence of a seq wins.
  std::map<std::uint64_t, std::vector<std::uint8_t>> pending;
  std::set<std::uint64_t> dead;
  std::uint64_t max_seq = 0;
  for (const std::uint64_t generation : files_.list()) {
    const util::Expected<std::vector<std::uint8_t>> bytes =
        files_.read(generation);
    if (!bytes) {
      ++recovery.torn_files;
      continue;
    }
    const JournalScan scan =
        scan_journal_file(bytes.value(), config_.max_payload_bytes);
    if (!scan.tail.is_ok()) {
      ++recovery.torn_files;
      util::log_warn("journal generation ", generation,
                     " truncated at byte ", scan.valid_bytes, ": ",
                     scan.tail.to_string());
    }
    for (const JournalRecord& record : scan.records) {
      max_seq = std::max(max_seq, record.seq);
      if (record.type == JournalRecordType::kTombstone) {
        dead.insert(record.seq);
        continue;
      }
      if (!pending.emplace(record.seq, record.payload).second)
        ++recovery.duplicates;
    }
  }
  next_seq_ = max_seq + 1;

  // Resolve tombstones and decode survivors.  A second dedupe layer works
  // on the spec identity (journal_key): if the same logical run was
  // admitted twice — e.g. a client retried after a shed whose append had
  // in fact reached the disk — only the first instance is resubmitted.
  std::unordered_map<std::string, std::uint64_t> seen_keys;
  for (auto& [seq, payload] : pending) {
    util::Expected<RunSpec> decoded = decode_run_spec(payload);
    if (dead.count(seq) > 0) {
      ++recovery.tombstoned;
      if (decoded) recovery.completed.push_back(decoded.value().name);
      continue;
    }
    if (!decoded) {
      ++recovery.unrecoverable;
      util::log_warn("journal seq ", seq, " pending but undecodable: ",
                     decoded.status().to_string());
      continue;
    }
    RunSpec spec = std::move(decoded).value();
    if (spec.kind == WorkloadKind::kCustom ||
        ((spec.kind == WorkloadKind::kTraceReplay ||
          spec.kind == WorkloadKind::kSystemSensitive) &&
         !spec.trace)) {
      // The callable / in-memory trace did not survive the process; the
      // record is journaled for accounting but cannot be re-executed.
      ++recovery.unrecoverable;
      continue;
    }
    const std::string key = spec.journal_key();
    const auto [it, fresh] = seen_keys.emplace(key, seq);
    if (!fresh) {
      ++recovery.duplicates;
      continue;
    }
    LivePending live;
    live.key = key;
    live.name = spec.name;
    live.payload = payload;
    live_.emplace(seq, std::move(live));
    recovery.pending.push_back(RecoveredRun{seq, std::move(spec)});
  }

  // Compact what survived into a fresh sealed generation and open it for
  // appends.  This also heals overlap and truncated tails on disk.  The
  // crash-injection hook is disarmed for this bootstrap compaction so
  // tests can open a journal and then crash a later, explicit compact().
  opened_ = true;  // compact_locked requires an open journal
  const int armed_crash = config_.testing_crash_compact;
  config_.testing_crash_compact = 0;
  util::Status compacted = compact_locked();
  config_.testing_crash_compact = armed_crash;
  if (!compacted.is_ok()) {
    opened_ = false;
    return compacted;
  }
  recovered_counter().add(recovery.pending.size());
  if (!recovery.pending.empty() || recovery.torn_files > 0)
    PRAGMA_FLIGHT(0.0, "journal", "recovered ", recovery.pending.size(),
                  " pending, ", recovery.tombstoned, " tombstoned, ",
                  recovery.unrecoverable, " unrecoverable, ",
                  recovery.torn_files, " torn files");
  return recovery;
}

util::Status Journal::write_frame(const std::vector<std::uint8_t>& frame,
                                  std::uint64_t* watermark) {
  if (util::Status status =
          io::write_all(fd_, frame.data(), frame.size(),
                        files_.path_for(active_generation_));
      !status.is_ok())
    return status;
  written_bytes_ += frame.size();
  const std::uint64_t next =
      append_watermark_.load(std::memory_order_relaxed) + frame.size();
  append_watermark_.store(next, std::memory_order_release);
  if (watermark) *watermark = next;
  return util::Status::ok();
}

util::Status Journal::commit(std::uint64_t target) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (synced_watermark_ >= target) return util::Status::ok();  // batched
  const std::uint64_t covered =
      append_watermark_.load(std::memory_order_acquire);
  const auto start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0)
    return util::Status::internal("journal fsync failed: " +
                                  std::string(std::strerror(errno)));
  if (obs::metrics_enabled()) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    fsync_histogram().observe(elapsed.count());
  }
  fsync_count_.fetch_add(1, std::memory_order_relaxed);
  synced_watermark_ = covered;
  return util::Status::ok();
}

void Journal::enter_degraded(const util::Status& cause) {
  if (degraded_) return;
  degraded_ = true;
  stats_.degraded = true;
  degraded_counter().add();
  util::log_warn("journal degraded (serving in-memory only): ",
                 cause.to_string());
  PRAGMA_FLIGHT(0.0, "journal", "DEGRADED journal-unwritable: ",
                cause.to_string());
}

util::Expected<std::uint64_t> Journal::append(const RunSpec& spec) {
  util::Expected<std::vector<std::uint64_t>> seqs = append_batch({&spec});
  if (!seqs) return seqs.status();
  return seqs.value().front();
}

util::Expected<std::vector<std::uint64_t>> Journal::append_batch(
    const std::vector<const RunSpec*>& specs) {
  std::vector<std::uint64_t> seqs;
  if (specs.empty()) return seqs;
  seqs.reserve(specs.size());

  // Encode every payload outside the lock; an oversized spec sheds the
  // whole batch (all-or-nothing: no half of a batch may be durable while
  // its other half never existed).
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(specs.size());
  for (const RunSpec* spec : specs) {
    payloads.push_back(encode_run_spec(*spec));
    if (payloads.back().size() > config_.max_payload_bytes)
      return shed_status(util::StatusCode::kOutOfRange,
                         ShedReason::kPayloadTooLarge,
                         "run-spec payload of \"" + spec->name + "\" (" +
                             std::to_string(payloads.back().size()) +
                             " bytes) exceeds journal cap of " +
                             std::to_string(config_.max_payload_bytes),
                         /*retry_after_ms=*/-1);
  }

  std::uint64_t target = 0;
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!opened_)
      return util::Status::failed_precondition("journal not open");
    const std::uint64_t first_seq = next_seq_;
    for (std::size_t i = 0; i < specs.size(); ++i) seqs.push_back(next_seq_++);

    util::Status injected = util::Status::ok();
    if (config_.testing_append_error) injected = config_.testing_append_error();

    if (!degraded_ && injected.is_ok()) {
      // Frame the batch: kBatch records chunked so no frame payload
      // exceeds the cap; a chunk of one degenerates to a plain kPending
      // frame, so append() (a batch of one) writes exactly that frame.
      // All the chunks concatenate into ONE image -> one write, one fsync.
      std::vector<std::uint8_t> image;
      std::vector<JournalRecord> chunk;
      std::size_t chunk_bytes = 4;
      const auto flush_chunk = [&] {
        if (chunk.empty()) return;
        const std::vector<std::uint8_t> frame =
            chunk.size() == 1
                ? encode_journal_record(JournalRecordType::kPending,
                                        chunk.front().seq,
                                        chunk.front().payload)
                : encode_journal_batch_record(chunk);
        image.insert(image.end(), frame.begin(), frame.end());
        chunk.clear();
        chunk_bytes = 4;
      };
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::size_t item_bytes = 16 + payloads[i].size();
        if (!chunk.empty() &&
            chunk_bytes + item_bytes > config_.max_payload_bytes)
          flush_chunk();
        JournalRecord item;
        item.type = JournalRecordType::kPending;
        item.seq = seqs[i];
        item.payload = payloads[i];
        chunk.push_back(std::move(item));
        chunk_bytes += item_bytes;
      }
      flush_chunk();

      // Saturation: try compacting first (tombstoned bulk may free the
      // space); shed the whole batch when the live set itself is too
      // large, restoring the sequence counter.
      if (written_bytes_ + image.size() > config_.max_active_bytes) {
        (void)compact_locked();
        if (written_bytes_ + image.size() > config_.max_active_bytes) {
          next_seq_ = first_seq;
          ++stats_.shed_saturated;
          shed_saturated_counter().add();
          std::string message = "journal saturated (" +
                                std::to_string(written_bytes_) +
                                " bytes live)";
          if (specs.size() > 1)
            message += "; batch of " + std::to_string(specs.size()) + " shed";
          return shed_status(util::StatusCode::kUnavailable,
                             ShedReason::kJournalSaturated, message,
                             config_.shed_retry_after_ms);
        }
      }
      util::Status written = write_frame(image, &target);
      if (written.is_ok()) {
        records_in_active_ += specs.size();
        durable = true;
      } else {
        enter_degraded(written);
      }
    } else if (!injected.is_ok()) {
      enter_degraded(injected);
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
      LivePending live;
      live.key = specs[i]->journal_key();
      live.name = specs[i]->name;
      if (durable) live.payload = std::move(payloads[i]);
      live_.emplace(seqs[i], std::move(live));
    }
    stats_.appends += specs.size();
    if (specs.size() > 1) ++stats_.batch_appends;
    if (!durable) stats_.degraded_appends += specs.size();
  }
  appends_counter().add(specs.size());
  if (specs.size() > 1) batch_appends_counter().add();
  if (durable && config_.fsync) {
    if (util::Status synced = commit(target); !synced.is_ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      enter_degraded(synced);
    }
  }
  return seqs;
}

void Journal::tombstone(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opened_) return;
  if (live_.erase(seq) == 0) return;  // unknown or already tombstoned
  ++stats_.tombstones;
  tombstones_counter().add();
  if (degraded_) return;  // in-memory bookkeeping only
  const std::vector<std::uint8_t> frame =
      encode_journal_record(JournalRecordType::kTombstone, seq, {});
  // Tombstones are not individually fsynced: losing one re-runs a
  // completed run after a crash, which recovery fences; the next pending
  // append's group commit carries them to disk.
  if (util::Status written = write_frame(frame, nullptr); !written.is_ok()) {
    enter_degraded(written);
    return;
  }
  ++tombstones_in_active_;
  if (tombstones_in_active_ >= config_.compact_min_tombstones &&
      static_cast<double>(tombstones_in_active_) >=
          config_.compact_tombstone_ratio *
              static_cast<double>(records_in_active_ + 1))
    (void)compact_locked();
}

util::Status Journal::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opened_) return util::Status::failed_precondition("journal not open");
  return compact_locked();
}

util::Status Journal::compact_locked() {
  if (degraded_)
    return util::Status::unavailable("journal degraded; compaction skipped");

  // Serialize the live set into a fresh generation image.
  std::vector<std::uint8_t> image = io::encode_log_header();
  for (const auto& [seq, live] : live_) {
    if (live.payload.empty()) continue;  // degraded-era record, not durable
    const std::vector<std::uint8_t> frame =
        encode_journal_record(JournalRecordType::kPending, seq, live.payload);
    image.insert(image.end(), frame.begin(), frame.end());
  }

  const std::vector<std::uint64_t> old = files_.list();
  const std::uint64_t generation = old.empty() ? 1 : old.back() + 1;
  if (util::Status status = files_.write_tmp(generation, image);
      !status.is_ok())
    return status;

  if (config_.testing_crash_compact == 1)
    return util::Status::internal(
        "testing: crashed after compaction tmp write, before rename");

  if (util::Status status = files_.publish(generation); !status.is_ok())
    return status;

  if (config_.testing_crash_compact == 2)
    return util::Status::internal(
        "testing: crashed after compaction rename, before old-gen delete");

  // Swap the active fd.  commit() fsyncs under commit_mu_ alone, so the
  // swap takes both locks (mu_ is already held; lock order mu_ ->
  // commit_mu_).  The compacted generation was fully fsynced above, so
  // everything ever appended is durable: the synced watermark jumps to
  // the append watermark.
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    const std::string path = files_.path_for(generation);
    const int new_fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (new_fd < 0)
      return util::Status::internal("cannot reopen " + path + ": " +
                                    std::strerror(errno));
    if (fd_ >= 0) ::close(fd_);
    fd_ = new_fd;
    synced_watermark_ = append_watermark_.load(std::memory_order_acquire);
  }
  active_generation_ = generation;
  written_bytes_ = image.size();
  records_in_active_ = live_.size();
  tombstones_in_active_ = 0;
  ++stats_.compactions;
  compactions_counter().add();

  // Best-effort; overlapping generations dedupe by seq at recovery.
  for (const std::uint64_t g : old) ::unlink(files_.path_for(g).c_str());
  return util::Status::ok();
}

bool Journal::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

JournalStats Journal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JournalStats out = stats_;
  out.fsyncs = fsync_count_.load(std::memory_order_relaxed);
  out.active_bytes = written_bytes_;
  out.live_pending = live_.size();
  out.degraded = degraded_;
  return out;
}

}  // namespace pragma::service
