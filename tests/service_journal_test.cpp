// GCC 12 at -O3 reports spurious -Wrestrict on libstdc++'s own
// basic_string::assign when RunSpec string fields are set in a loop, and
// spurious -Wmaybe-uninitialized on vector members of copied RunSpecs.
#pragma GCC diagnostic ignored "-Wrestrict"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "pragma/service/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pragma/io/checkpoint.hpp"
#include "pragma/obs/flight_recorder.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/util/crc32.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::service {
namespace {

namespace fs = std::filesystem;

/// A fresh directory per test, removed on destruction.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("pragma-journal-test-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

JournalConfig journal_config(const TempDir& dir) {
  JournalConfig config;
  config.enabled = true;
  config.dir = dir.path();
  return config;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// A small managed spec whose execution is fully modeled (no wall-clock
/// partitioner timing), so reruns are bitwise reproducible.
RunSpec small_managed_spec(const std::string& name, std::uint64_t seed = 7) {
  RunSpec spec;
  spec.name = name;
  spec.kind = WorkloadKind::kManaged;
  spec.app.coarse_steps = 12;
  spec.nprocs = 4;
  spec.capacity_spread = 0.3;
  spec.seed = seed;
  spec.modeled_partition_s_per_cell = 50e-9;
  return spec;
}

/// Every field the run-spec payload persists, listed independently of the
/// codec's own field list so that a field missing from both directions of
/// the codec still fails RunSpecRoundTripsBitwise.
#define PRAGMA_PERSISTED_RUN_SPEC_FIELDS(X)                                 \
  X(name) X(tenant) X(priority) X(kind)                                     \
  X(app.base_dims.x) X(app.base_dims.y) X(app.base_dims.z)                  \
  X(app.max_levels) X(app.ratio) X(app.regrid_interval) X(app.coarse_steps) \
  X(app.seed) X(app.thresholds) X(app.cluster.efficiency)                   \
  X(app.cluster.min_width) X(app.cluster.max_box_cells)                     \
  X(app.cluster.max_depth) X(app_name) X(nprocs) X(capacity_spread)         \
  X(sites) X(wan_mbps) X(with_background_load) X(load.update_period_s)      \
  X(load.mean_cpu_load) X(load.reversion) X(load.volatility)                \
  X(load.burst_probability) X(load.burst_load) X(load.burst_duration_s)     \
  X(load.mean_link_utilization) X(load.node_bias_spread)                    \
  X(system_sensitive) X(proactive) X(weights.cpu) X(weights.memory)         \
  X(weights.bandwidth) X(monitor.period_s) X(monitor.noise)                 \
  X(monitor.history) X(exec.flops_per_cell_update)                          \
  X(exec.bytes_per_face_cell) X(exec.bytes_per_cell)                        \
  X(exec.message_latency_s) X(exec.partition_time_scale)                    \
  X(exec.redistribution_overhead) X(meta.hysteresis) X(agent_period_s)      \
  X(load_event_threshold) X(seed) X(ft.enabled)                             \
  X(ft.channel.drop_probability) X(ft.channel.duplicate_probability)        \
  X(ft.channel.jitter_s) X(ft.reliable.timeout_s)                           \
  X(ft.reliable.backoff_factor) X(ft.reliable.max_attempts)                 \
  X(ft.heartbeat.period_s)                                                  \
  X(ft.heartbeat.suspect_missed) X(ft.heartbeat.confirm_missed)             \
  X(ft.staleness.fresh_age_s) X(ft.staleness.decay_tau_s)                   \
  X(ft.staleness.prior_fraction)                                            \
  X(persist.enabled) X(persist.dir) X(persist.resume)                       \
  X(persist.keep_last_n)                                                    \
  X(checkpoint_interval_s) X(modeled_partition_s_per_cell) X(strategy)      \
  X(targets) X(stale_weight) X(repartition_threshold)                       \
  X(threads) X(dynamic_capacities) X(failures.at(0).at_s)                  \
  X(failures.at(0).node)                                                    \
  X(failures.at(0).downtime_s)                                              \
  X(budget.cpu_s) X(budget.mem_bytes) X(budget.io_bytes) X(budget.wall_s)  \
  X(budget.action) X(budget.throttle_factor)

/// A spec holding a non-default value in every persisted field.
RunSpec elaborate_spec() {
  RunSpec spec = small_managed_spec("elaborate", 99);
  spec.tenant = "tenant-x";
  spec.priority = 3;
  spec.kind = WorkloadKind::kTraceReplay;
  spec.app.base_dims = {64, 16, 24};
  spec.app.max_levels = 4;
  spec.app.ratio = 3;
  spec.app.regrid_interval = 6;
  spec.app.seed = 11;
  spec.app.thresholds = {0.5, 0.75, 1.5};
  spec.app.cluster.efficiency = 0.8;
  spec.app.cluster.min_width = 3;
  spec.app.cluster.max_box_cells = 4096;
  spec.app.cluster.max_depth = 32;
  spec.app_name = "rm3d-variant";
  spec.sites = 2;
  spec.wan_mbps = 12.5;
  spec.with_background_load = true;
  spec.load.update_period_s = 1.5;
  spec.load.mean_cpu_load = 0.4;
  spec.load.reversion = 0.2;
  spec.load.volatility = 0.1;
  spec.load.burst_probability = 0.02;
  spec.load.burst_load = 0.5;
  spec.load.burst_duration_s = 15.0;
  spec.load.mean_link_utilization = 0.2;
  spec.load.node_bias_spread = 0.25;
  spec.system_sensitive = true;
  spec.proactive = true;
  spec.weights = {0.5, 0.25, 0.25};
  spec.monitor.period_s = 3.0;
  spec.monitor.noise = 0.05;
  spec.monitor.history = 512;
  spec.exec.flops_per_cell_update = 4000.0;
  spec.exec.bytes_per_face_cell = 100.0;
  spec.exec.bytes_per_cell = 64.0;
  spec.exec.message_latency_s = 300e-6;
  spec.exec.partition_time_scale = 120.0;
  spec.exec.redistribution_overhead = 5.0;
  spec.meta.hysteresis = 2;
  spec.agent_period_s = 1.5;
  spec.load_event_threshold = 0.9;
  spec.ft.enabled = true;
  spec.ft.channel.drop_probability = 0.05;
  spec.ft.channel.duplicate_probability = 0.01;
  spec.ft.channel.jitter_s = 1e-3;
  spec.ft.reliable.timeout_s = 0.25;
  spec.ft.reliable.backoff_factor = 1.5;
  spec.ft.reliable.max_attempts = 5;
  spec.ft.heartbeat.period_s = 0.5;
  spec.ft.heartbeat.suspect_missed = 4;
  spec.ft.heartbeat.confirm_missed = 9;
  spec.ft.staleness.fresh_age_s = 3.0;
  spec.ft.staleness.decay_tau_s = 8.0;
  spec.ft.staleness.prior_fraction = 0.1;
  spec.persist.enabled = true;
  spec.persist.dir = "ckpt/elaborate";
  spec.persist.resume = true;
  spec.persist.keep_last_n = 3;
  spec.checkpoint_interval_s = 12.5;
  spec.strategy = "GMISP+SP";
  spec.targets = {0.1, 0.2, 0.3};
  spec.stale_weight = 0.5;
  spec.repartition_threshold = 0.3;
  spec.threads = 2;
  spec.dynamic_capacities = true;
  spec.failures.push_back({60.0, 3, 120.0});
  spec.budget.cpu_s = 12.5;
  spec.budget.mem_bytes = 1ull << 30;
  spec.budget.io_bytes = 1ull << 20;
  spec.budget.wall_s = 60.0;
  spec.budget.action = res::ResourceBudget::Action::kThrottle;
  spec.budget.throttle_factor = 3.5;
  return spec;
}

TEST(JournalCodec, RunSpecRoundTripsBitwise) {
  const RunSpec original = elaborate_spec();
  RunSpec defaults;
  defaults.failures.push_back({});
  const std::vector<std::uint8_t> payload = encode_run_spec(original);
  util::Expected<RunSpec> decoded = decode_run_spec(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  const RunSpec& spec = decoded.value();
  ASSERT_EQ(spec.failures.size(), original.failures.size());
  // Every persisted field holds a non-default value and comes back
  // exactly (doubles bit for bit).
#define PRAGMA_EXPECT_ROUND_TRIP(field)                                  \
  EXPECT_NE(original.field, defaults.field) << #field " holds its default"; \
  EXPECT_EQ(spec.field, original.field) << #field;
  PRAGMA_PERSISTED_RUN_SPEC_FIELDS(PRAGMA_EXPECT_ROUND_TRIP)
#undef PRAGMA_EXPECT_ROUND_TRIP
  EXPECT_EQ(encode_run_spec(spec), payload);
  EXPECT_EQ(spec.journal_key(), original.journal_key());
}

TEST(JournalCodec, RejectsTrailingBytesAndBadVersion) {
  std::vector<std::uint8_t> payload = encode_run_spec(small_managed_spec("a"));
  payload.push_back(0);
  EXPECT_FALSE(decode_run_spec(payload).has_value());

  // Payloads of the retired versions 1 to 5, and of an unknown one.
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u, 0xFFu}) {
    payload = encode_run_spec(small_managed_spec("a"));
    std::memcpy(payload.data(), &version, sizeof version);
    const util::Expected<RunSpec> decoded = decode_run_spec(payload);
    ASSERT_FALSE(decoded.has_value()) << version;
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kUnimplemented)
        << version;
  }
}

/// The libFuzzer seeds in fuzz/corpus/journal, written by the current
/// encoder: valid.wal is two pending records (seqs 1 and 2) of one spec
/// (name "corpus", tenant "fuzz", 12 steps, 4 procs, thresholds {0.5},
/// targets {0.1, 0.2}, the failure plan {60 s, node 3, 120 s}, all else
/// default) and a tombstone for seq 1; batch.wal is one batch frame of
/// that spec (seq 1) and its "corpus-1" twin (seed + 1000, seq 2) and a
/// tombstone for seq 2; torn.wal cuts valid.wal halfway into the second
/// payload; bitflip.wal flips bit 4 of the first payload's byte 24.  A
/// payload version bump must regenerate them, or the fuzzer explores
/// stale bytes.
TEST(JournalCorpus, SeedsDecodeWithCurrentCodec) {
  const std::string corpus = std::string(PRAGMA_SOURCE_DIR) +
                             "/fuzz/corpus/journal/";
  for (const char* name : {"valid.wal", "batch.wal"}) {
    const std::vector<std::uint8_t> bytes = read_file(corpus + name);
    const JournalScan scan = scan_journal_file(bytes);
    EXPECT_TRUE(scan.tail.is_ok()) << name << ": " << scan.tail.to_string();
    EXPECT_EQ(scan.valid_bytes, bytes.size()) << name;
    std::size_t pending = 0;
    for (const JournalRecord& record : scan.records) {
      if (record.type != JournalRecordType::kPending) continue;
      ++pending;
      const util::Expected<RunSpec> spec = decode_run_spec(record.payload);
      ASSERT_TRUE(spec.has_value())
          << name << " seq " << record.seq << ": " << spec.status().to_string();
      EXPECT_EQ(encode_run_spec(spec.value()), record.payload)
          << name << " seq " << record.seq;
    }
    EXPECT_EQ(pending, 2u) << name;
  }

  // The damaged seeds stop at their damaged frame: torn.wal after the
  // first intact record, bitflip.wal at the first (corrupt) record.
  const JournalScan torn = scan_journal_file(read_file(corpus + "torn.wal"));
  EXPECT_EQ(torn.tail.code(), util::StatusCode::kDataLoss);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_TRUE(decode_run_spec(torn.records[0].payload).has_value());
  const JournalScan flipped =
      scan_journal_file(read_file(corpus + "bitflip.wal"));
  EXPECT_EQ(flipped.tail.code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(flipped.records.empty());
  EXPECT_EQ(flipped.valid_bytes, io::kLogHeaderBytes);
}

TEST(JournalCodec, JournalKeyDistinguishesDerivedRuns) {
  const RunSpec base = small_managed_spec("burst", 7);
  EXPECT_NE(base.journal_key(), small_managed_spec("burst", 8).journal_key());
  EXPECT_NE(base.journal_key(), small_managed_spec("other", 7).journal_key());
  EXPECT_EQ(base.journal_key(), small_managed_spec("burst", 7).journal_key());
}

TEST(JournalScanTest, AcceptsLongestValidPrefixOnTornTail) {
  std::vector<std::uint8_t> image = io::encode_log_header();
  const std::vector<std::uint8_t> p1 = encode_run_spec(small_managed_spec("a"));
  const std::vector<std::uint8_t> p2 = encode_run_spec(small_managed_spec("b"));
  const auto r1 = encode_journal_record(JournalRecordType::kPending, 1, p1);
  const auto r2 = encode_journal_record(JournalRecordType::kPending, 2, p2);
  image.insert(image.end(), r1.begin(), r1.end());
  image.insert(image.end(), r2.begin(), r2.end());
  const std::size_t intact = image.size();
  const auto r3 = encode_journal_record(JournalRecordType::kPending, 3, p1);
  // Simulate a crash mid-append: only half of the third frame hit disk.
  image.insert(image.end(), r3.begin(), r3.begin() + r3.size() / 2);

  const JournalScan scan = scan_journal_file(image);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_FALSE(scan.tail.is_ok());
}

TEST(JournalScanTest, BitFlipStopsScanAtCorruptRecord) {
  std::vector<std::uint8_t> image = io::encode_log_header();
  const std::vector<std::uint8_t> payload =
      encode_run_spec(small_managed_spec("a"));
  std::size_t second_at = 0;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto frame =
        encode_journal_record(JournalRecordType::kPending, seq, payload);
    if (seq == 2) second_at = image.size();
    image.insert(image.end(), frame.begin(), frame.end());
  }
  // Flip one payload byte inside the second record.
  image[second_at + io::kLogFrameHeaderBytes + 10] ^= 0x40;

  const JournalScan scan = scan_journal_file(image);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_FALSE(scan.tail.is_ok());
}

TEST(JournalScanTest, HostilePayloadLengthIsCapped) {
  std::vector<std::uint8_t> image = io::encode_log_header();
  auto frame = encode_journal_record(JournalRecordType::kPending, 1, {});
  // Declare a huge payload and re-seal the header CRC so only the size
  // sanity check can reject it.
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(frame.data() + 16, &huge, sizeof huge);
  const std::uint32_t crc = util::crc32(frame.data(), 28);
  std::memcpy(frame.data() + 28, &crc, sizeof crc);
  image.insert(image.end(), frame.begin(), frame.end());

  const JournalScan scan = scan_journal_file(image);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail.code(), util::StatusCode::kOutOfRange);
}

TEST(JournalScanTest, CheckpointRecordTypeIsRejected) {
  std::vector<std::uint8_t> image = io::encode_log_header();
  const auto frame =
      io::encode_log_frame(io::kCheckpointRecordType, 1, {1, 2, 3});
  image.insert(image.end(), frame.begin(), frame.end());

  const JournalScan scan = scan_journal_file(image);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, io::kLogHeaderBytes);
  EXPECT_EQ(scan.tail.code(), util::StatusCode::kInvalidArgument);
}

TEST(JournalRecoveryTest, AppendedRunsSurviveReopen) {
  TempDir dir;
  {
    Journal journal(journal_config(dir));
    util::Expected<JournalRecovery> opened = journal.open();
    ASSERT_TRUE(opened.has_value()) << opened.status().to_string();
    EXPECT_TRUE(opened.value().pending.empty());
    ASSERT_TRUE(journal.append(small_managed_spec("one", 1)).has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("two", 2)).has_value());
    EXPECT_EQ(journal.stats().live_pending, 2u);
    // Journal destroyed without tombstones: the process "died" here.
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value()) << recovery.status().to_string();
  ASSERT_EQ(recovery.value().pending.size(), 2u);
  EXPECT_EQ(recovery.value().pending[0].spec.name, "one");
  EXPECT_EQ(recovery.value().pending[1].spec.name, "two");
  EXPECT_EQ(recovery.value().duplicates, 0u);
}

TEST(JournalRecoveryTest, TombstonedRunsAreNotResubmitted) {
  TempDir dir;
  std::uint64_t done_seq = 0;
  {
    Journal journal(journal_config(dir));
    ASSERT_TRUE(journal.open().has_value());
    util::Expected<std::uint64_t> first =
        journal.append(small_managed_spec("done", 1));
    ASSERT_TRUE(first.has_value());
    done_seq = first.value();
    ASSERT_TRUE(journal.append(small_managed_spec("pending", 2)).has_value());
    journal.tombstone(done_seq);
    EXPECT_EQ(journal.stats().live_pending, 1u);
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  ASSERT_EQ(recovery.value().pending.size(), 1u);
  EXPECT_EQ(recovery.value().pending[0].spec.name, "pending");
  EXPECT_EQ(recovery.value().tombstoned, 1u);
  ASSERT_EQ(recovery.value().completed.size(), 1u);
  EXPECT_EQ(recovery.value().completed[0], "done");
}

TEST(JournalRecoveryTest, TornActiveTailRecoversIntactPrefix) {
  TempDir dir;
  std::string active;
  {
    Journal journal(journal_config(dir));
    ASSERT_TRUE(journal.open().has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("kept", 1)).has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("torn", 2)).has_value());
    active = journal.active_path();
  }
  // Chop the last record in half, as a crash mid-write would.
  std::vector<std::uint8_t> bytes = read_file(active);
  bytes.resize(bytes.size() - 20);
  write_file(active, bytes);

  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  ASSERT_EQ(recovery.value().pending.size(), 1u);
  EXPECT_EQ(recovery.value().pending[0].spec.name, "kept");
  EXPECT_EQ(recovery.value().torn_files, 1u);
}

TEST(JournalRecoveryTest, DuplicateAdmissionsCollapseByJournalKey) {
  TempDir dir;
  {
    Journal journal(journal_config(dir));
    ASSERT_TRUE(journal.open().has_value());
    // The same logical run admitted twice (a client retry whose first
    // append had in fact reached the disk).
    ASSERT_TRUE(journal.append(small_managed_spec("retry", 5)).has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("retry", 5)).has_value());
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery.value().pending.size(), 1u);
  EXPECT_EQ(recovery.value().duplicates, 1u);
}

TEST(JournalRecoveryTest, CustomWorkloadsAreUnrecoverable) {
  TempDir dir;
  {
    Journal journal(journal_config(dir));
    ASSERT_TRUE(journal.open().has_value());
    RunSpec spec;
    spec.name = "callable";
    spec.kind = WorkloadKind::kCustom;
    spec.custom = [](RunContext&) { return util::Status::ok(); };
    ASSERT_TRUE(journal.append(spec).has_value());
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_TRUE(recovery.value().pending.empty());
  EXPECT_EQ(recovery.value().unrecoverable, 1u);
}

TEST(JournalCompactionTest, CompactionDropsTombstonesAndHealsOnReopen) {
  TempDir dir;
  {
    JournalConfig config = journal_config(dir);
    config.compact_min_tombstones = 1u << 30;  // no auto-compaction
    Journal journal(config);
    ASSERT_TRUE(journal.open().has_value());
    std::vector<std::uint64_t> seqs;
    for (int i = 0; i < 8; ++i) {
      util::Expected<std::uint64_t> seq =
          journal.append(small_managed_spec("r" + std::to_string(i),
                                            static_cast<std::uint64_t>(i)));
      ASSERT_TRUE(seq.has_value());
      seqs.push_back(seq.value());
    }
    for (int i = 0; i < 6; ++i) journal.tombstone(seqs[i]);
    const std::uint64_t before = journal.stats().active_bytes;
    ASSERT_TRUE(journal.compact().is_ok());
    const JournalStats stats = journal.stats();
    EXPECT_LT(stats.active_bytes, before);
    EXPECT_EQ(stats.live_pending, 2u);
    // Compaction leaves exactly one generation behind.
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, 1u);
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  ASSERT_EQ(recovery.value().pending.size(), 2u);
  EXPECT_EQ(recovery.value().pending[0].spec.name, "r6");
  EXPECT_EQ(recovery.value().pending[1].spec.name, "r7");
}

TEST(JournalCompactionTest, KillBeforeRenameLosesNothing) {
  TempDir dir;
  {
    JournalConfig config = journal_config(dir);
    config.testing_crash_compact = 1;  // die after tmp write, before rename
    Journal journal(config);
    ASSERT_TRUE(journal.open().has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("a", 1)).has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("b", 2)).has_value());
    EXPECT_FALSE(journal.compact().is_ok());
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery.value().pending.size(), 2u);
  EXPECT_EQ(recovery.value().duplicates, 0u);
}

TEST(JournalCompactionTest, KillAfterRenameDedupesOverlappingGenerations) {
  TempDir dir;
  {
    JournalConfig config = journal_config(dir);
    config.testing_crash_compact = 2;  // die after rename, before delete
    Journal journal(config);
    ASSERT_TRUE(journal.open().has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("a", 1)).has_value());
    ASSERT_TRUE(journal.append(small_managed_spec("b", 2)).has_value());
    EXPECT_FALSE(journal.compact().is_ok());
    // Both the old and the compacted generation are now on disk.
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, 2u);
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  // Same seqs in both generations: first occurrence wins, rest collapse.
  EXPECT_EQ(recovery.value().pending.size(), 2u);
  EXPECT_EQ(recovery.value().duplicates, 2u);
}

TEST(JournalDegradationTest, SaturationShedsWithRetryAfterHint) {
  TempDir dir;
  JournalConfig config = journal_config(dir);
  const std::size_t frame_bytes =
      io::kLogFrameHeaderBytes + encode_run_spec(small_managed_spec("a")).size();
  // Room for the file header plus one and a half records: the second
  // append must shed even after the emergency compaction attempt.
  config.max_active_bytes = io::kLogHeaderBytes + frame_bytes +
                            frame_bytes / 2;
  Journal journal(config);
  ASSERT_TRUE(journal.open().has_value());

  util::Expected<std::uint64_t> first = journal.append(small_managed_spec("a"));
  ASSERT_TRUE(first.has_value());
  util::Expected<std::uint64_t> shed = journal.append(small_managed_spec("b"));
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(shed_info(shed.status()).retry_after_ms,
            config.shed_retry_after_ms);
  EXPECT_EQ(journal.stats().shed_saturated, 1u);

  // Completing the first run frees its slot: the retry now passes via the
  // emergency compaction.
  journal.tombstone(first.value());
  EXPECT_TRUE(journal.append(small_managed_spec("b")).has_value());
}

TEST(JournalDegradationTest, IoFailureLatchesDegradedModeAndKeepsServing) {
  TempDir dir;
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();

  JournalConfig config = journal_config(dir);
  std::atomic<bool> disk_broken{false};
  config.testing_append_error = [&disk_broken]() {
    return disk_broken.load() ? util::Status::internal("injected EIO")
                              : util::Status::ok();
  };
  Journal journal(config);
  ASSERT_TRUE(journal.open().has_value());
  ASSERT_TRUE(journal.append(small_managed_spec("before", 1)).has_value());
  EXPECT_FALSE(journal.degraded());

  disk_broken.store(true);
  // The failed write latches degraded mode, but admission keeps working:
  // the append still hands back a sequence number.
  util::Expected<std::uint64_t> seq =
      journal.append(small_managed_spec("during", 2));
  ASSERT_TRUE(seq.has_value());
  EXPECT_TRUE(journal.degraded());
  journal.tombstone(seq.value());  // best-effort bookkeeping, no crash

  const JournalStats stats = journal.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.degraded_appends, 1u);
  EXPECT_FALSE(journal.compact().is_ok());

  bool saw_event = false;
  for (const obs::FlightEvent& event : recorder.events())
    if (std::string(event.category) == "journal" &&
        event.detail.find("DEGRADED") != std::string::npos)
      saw_event = true;
  EXPECT_TRUE(saw_event);
  recorder.set_enabled(false);
  recorder.clear();
}

TEST(JournalSchedulerTest, TerminalRunsTombstoneTheirRecords) {
  TempDir dir;
  Journal journal(journal_config(dir));
  ASSERT_TRUE(journal.open().has_value());

  util::ThreadPool pool(2);
  SchedulerConfig config{/*workers=*/2, /*queue_capacity=*/16};
  config.journal = &journal;
  {
    Scheduler scheduler(config, &pool);
    std::promise<void> gate;
    std::shared_future<void> release = gate.get_future().share();
    std::vector<RunHandle> handles;
    for (int i = 0; i < 4; ++i) {
      RunSpec spec;
      spec.name = "run" + std::to_string(i);
      spec.kind = WorkloadKind::kCustom;
      spec.custom = [release](RunContext&) {
        release.wait();
        return util::Status::ok();
      };
      util::Expected<RunHandle> handle = scheduler.submit(std::move(spec));
      ASSERT_TRUE(handle.has_value());
      handles.push_back(std::move(handle).value());
    }
    EXPECT_EQ(journal.stats().live_pending, 4u);
    // Withdraw a queued run: its tombstone lands immediately.
    ASSERT_TRUE(handles[3].cancel());
    EXPECT_EQ(journal.stats().live_pending, 3u);
    gate.set_value();
    scheduler.drain();
  }
  const JournalStats stats = journal.stats();
  EXPECT_EQ(stats.appends, 4u);
  EXPECT_EQ(stats.tombstones, 4u);
  EXPECT_EQ(stats.live_pending, 0u);
}

TEST(JournalRuntimeTest, RecoveredRunCompletesByteIdenticalToFreshRun) {
  TempDir dir;
  const RunSpec spec = small_managed_spec("recovered", 21);

  // The reference: the same spec executed by an uninterrupted runtime.
  auto fresh = Runtime::Builder{}.workers(1).build();
  const RunOutcome reference = fresh.run(spec);
  ASSERT_EQ(reference.state, RunState::kCompleted);

  // "Crash" after admission: the pending record is on disk, the process
  // dies before the run starts.
  {
    Journal journal(journal_config(dir));
    ASSERT_TRUE(journal.open().has_value());
    ASSERT_TRUE(journal.append(spec).has_value());
  }

  // Restart: build() replays the journal and resubmits the survivor.
  JournalConfig config = journal_config(dir);
  auto runtime = Runtime::Builder{}.workers(1).journal(config).build();
  ASSERT_NE(runtime.journal(), nullptr);
  ASSERT_EQ(runtime.recovered().pending.size(), 1u);
  ASSERT_EQ(runtime.recovered_handles().size(), 1u);
  const RunOutcome& outcome = runtime.recovered_handles()[0].wait();
  ASSERT_EQ(outcome.state, RunState::kCompleted);
  EXPECT_EQ(outcome.managed.total_time_s, reference.managed.total_time_s);
  EXPECT_EQ(outcome.managed.regrids, reference.managed.regrids);
  EXPECT_EQ(outcome.managed.repartitions, reference.managed.repartitions);
  EXPECT_EQ(outcome.managed.cells_advanced, reference.managed.cells_advanced);

  // The rerun's completion tombstoned the recovered record: a second
  // restart finds nothing pending.
  runtime.drain();
  EXPECT_EQ(runtime.journal()->stats().live_pending, 0u);
}

TEST(JournalRuntimeTest, DisabledJournalLeavesRuntimeUntouched) {
  auto runtime = Runtime::Builder{}.workers(1).build();
  EXPECT_EQ(runtime.journal(), nullptr);
  EXPECT_TRUE(runtime.recovered().pending.empty());
  const RunOutcome outcome = runtime.run(small_managed_spec("plain"));
  EXPECT_EQ(outcome.state, RunState::kCompleted);
}

TEST(JournalStressTest, ConcurrentSubmittersSurviveSnapshotKillAndRecover) {
  TempDir dir;
  TempDir snapshot;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;

  std::set<std::string> tombstoned_names;
  std::mutex names_mu;
  {
    JournalConfig config = journal_config(dir);
    config.compact_min_tombstones = 8;
    config.compact_tombstone_ratio = 0.25;
    Journal journal(config);
    ASSERT_TRUE(journal.open().has_value());

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string name =
              "t" + std::to_string(t) + "-" + std::to_string(i);
          util::Expected<std::uint64_t> seq = journal.append(
              small_managed_spec(name, static_cast<std::uint64_t>(t * 1000 + i)));
          ASSERT_TRUE(seq.has_value());
          if (i % 2 == 0) {
            journal.tombstone(seq.value());
            std::lock_guard<std::mutex> lock(names_mu);
            tombstoned_names.insert(name);
          }
        }
      });
    }
    // Racing snapshots of the directory stand in for a SIGKILL at an
    // arbitrary instant: a recovery over the copied bytes must accept a
    // valid prefix no matter where the copy caught each file.
    for (int round = 0; round < 3; ++round) {
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(dir.path(), ec)) {
        fs::copy_file(entry.path(),
                      fs::path(snapshot.path()) / entry.path().filename(),
                      fs::copy_options::overwrite_existing, ec);
      }
      std::this_thread::yield();
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_TRUE(journal.compact().is_ok());
    EXPECT_EQ(journal.stats().live_pending,
              static_cast<std::size_t>(kThreads * kPerThread) -
                  tombstoned_names.size());
  }

  // The mid-flight snapshot recovers cleanly (possibly short, never bad).
  {
    Journal from_snapshot(journal_config(snapshot));
    util::Expected<JournalRecovery> recovery = from_snapshot.open();
    ASSERT_TRUE(recovery.has_value()) << recovery.status().to_string();
    for (const RecoveredRun& run : recovery.value().pending)
      EXPECT_EQ(run.spec.name[0], 't');
  }

  // The real directory recovers exactly the non-tombstoned set.
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery.value().pending.size(),
            static_cast<std::size_t>(kThreads * kPerThread) -
                tombstoned_names.size());
  for (const RecoveredRun& run : recovery.value().pending)
    EXPECT_EQ(tombstoned_names.count(run.spec.name), 0u);
}

}  // namespace
}  // namespace pragma::service
