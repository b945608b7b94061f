// Integration tests for durable checkpoint persistence in ManagedRun:
// the save-state actuator writes real files, a killed run resumes from
// the newest valid generation, corruption falls back a generation, and
// the resumed run's final report is bit-identical to an uninterrupted
// run at the same seed.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "pragma/core/managed_run.hpp"
#include "pragma/core/run_snapshot.hpp"
#include "pragma/io/checkpoint.hpp"
#include "pragma/util/status.hpp"

namespace pragma::core {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("pragma_persist_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

ManagedRunConfig persist_config(const std::string& dir, int steps = 40) {
  ManagedRunConfig config;
  config.app.coarse_steps = steps;
  config.nprocs = 8;
  config.persist.enabled = true;
  config.persist.dir = dir;
  // Checkpoint on (almost) every step boundary so a mid-run kill always
  // has generations to recover from.
  config.checkpoint_interval_s = 1e-6;
  config.persist.keep_last_n = 4;
  return config;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_reports_bit_identical(const ManagedRunReport& a,
                                  const ManagedRunReport& b) {
  EXPECT_TRUE(same_bits(a.total_time_s, b.total_time_s))
      << a.total_time_s << " vs " << b.total_time_s;
  EXPECT_EQ(a.regrids, b.regrids);
  EXPECT_EQ(a.repartitions, b.repartitions);
  EXPECT_EQ(a.agent_events, b.agent_events);
  EXPECT_EQ(a.adm_decisions, b.adm_decisions);
  EXPECT_EQ(a.event_repartitions, b.event_repartitions);
  EXPECT_EQ(a.partitioner_switches, b.partitioner_switches);
  EXPECT_TRUE(same_bits(a.cells_advanced, b.cells_advanced));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const ManagedStepRecord& ra = a.records[i];
    const ManagedStepRecord& rb = b.records[i];
    EXPECT_EQ(ra.step, rb.step) << "record " << i;
    EXPECT_EQ(ra.octant, rb.octant) << "record " << i;
    EXPECT_EQ(ra.partitioner, rb.partitioner) << "record " << i;
    EXPECT_TRUE(same_bits(ra.sim_time_s, rb.sim_time_s)) << "record " << i;
    EXPECT_TRUE(same_bits(ra.step_time_s, rb.step_time_s)) << "record " << i;
    EXPECT_TRUE(same_bits(ra.imbalance, rb.imbalance)) << "record " << i;
    EXPECT_EQ(ra.live_nodes, rb.live_nodes) << "record " << i;
  }
}

TEST(Persistence, DisabledWritesNothing) {
  ManagedRunConfig config;
  config.app.coarse_steps = 20;
  config.nprocs = 8;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_EQ(report.checkpoints_persisted, 0u);
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(report.halted);
}

TEST(Persistence, WritesValidatableGenerations) {
  const std::string dir = test_dir("writes");
  const ManagedRunReport report =
      ManagedRun(persist_config(dir)).run();
  EXPECT_GT(report.checkpoints_persisted, 0u);

  io::CheckpointStoreOptions options;
  options.dir = dir;
  const io::CheckpointStore store(options);
  EXPECT_FALSE(store.generations().empty());
  EXPECT_LE(store.generations().size(), 4u);
  const auto loaded = store.load_latest_valid();
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  const auto snapshot = decode_run_snapshot(loaded.value().payload);
  ASSERT_TRUE(snapshot) << snapshot.status().to_string();
  EXPECT_EQ(snapshot.value().config_fingerprint,
            config_fingerprint(persist_config(dir)));
  fs::remove_all(dir);
}

TEST(Persistence, RerunWithSameSeedIsBitIdentical) {
  const std::string dir_a = test_dir("rerun_a");
  const std::string dir_b = test_dir("rerun_b");
  const ManagedRunReport a = ManagedRun(persist_config(dir_a)).run();
  const ManagedRunReport b = ManagedRun(persist_config(dir_b)).run();
  expect_reports_bit_identical(a, b);
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(Persistence, HaltAbandonsRunEarly) {
  const std::string dir = test_dir("halt");
  ManagedRunConfig config = persist_config(dir);
  config.persist.halt_after_steps = 13;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_TRUE(report.halted);
  EXPECT_GT(report.checkpoints_persisted, 0u);
  fs::remove_all(dir);
}

TEST(Persistence, KillThenResumeMatchesUninterruptedBitwise) {
  const std::string dir_ref = test_dir("kr_ref");
  const std::string dir = test_dir("kr");

  const ManagedRunReport uninterrupted =
      ManagedRun(persist_config(dir_ref)).run();

  ManagedRunConfig killed = persist_config(dir);
  killed.persist.halt_after_steps = 17;
  ASSERT_TRUE(ManagedRun(killed).run().halted);

  ManagedRunConfig resume = persist_config(dir);
  resume.persist.resume = true;
  const ManagedRunReport resumed = ManagedRun(resume).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.halted);
  expect_reports_bit_identical(uninterrupted, resumed);

  fs::remove_all(dir_ref);
  fs::remove_all(dir);
}

TEST(Persistence, DoubleKillThenResumeStillMatches) {
  const std::string dir_ref = test_dir("kr2_ref");
  const std::string dir = test_dir("kr2");

  const ManagedRunReport uninterrupted =
      ManagedRun(persist_config(dir_ref)).run();

  // Crash twice at different points before finally finishing.
  for (int halt_at : {9, 23}) {
    ManagedRunConfig killed = persist_config(dir);
    killed.persist.resume = true;
    killed.persist.halt_after_steps = halt_at;
    ASSERT_TRUE(ManagedRun(killed).run().halted);
  }
  ManagedRunConfig resume = persist_config(dir);
  resume.persist.resume = true;
  const ManagedRunReport resumed = ManagedRun(resume).run();
  EXPECT_TRUE(resumed.resumed);
  expect_reports_bit_identical(uninterrupted, resumed);

  fs::remove_all(dir_ref);
  fs::remove_all(dir);
}

TEST(Persistence, CorruptNewestGenerationFallsBackAndStillMatches) {
  const std::string dir_ref = test_dir("corrupt_ref");
  const std::string dir = test_dir("corrupt");

  const ManagedRunReport uninterrupted =
      ManagedRun(persist_config(dir_ref)).run();

  ManagedRunConfig killed = persist_config(dir);
  killed.persist.halt_after_steps = 21;
  ASSERT_TRUE(ManagedRun(killed).run().halted);

  // Corrupt the newest generation (payload bit-flip) and drop a torn tmp
  // orphan next to it, as a crash mid-write would leave.
  io::CheckpointStoreOptions options;
  options.dir = dir;
  const io::CheckpointStore store(options);
  const auto gens = store.generations();
  ASSERT_GE(gens.size(), 2u);
  {
    std::fstream file(store.path_for(gens.back()),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(io::kCheckpointHeaderBytes + 7));
    const char garbage = '\xa5';
    file.write(&garbage, 1);
  }
  std::ofstream(store.path_for(gens.back() + 1) + ".tmp") << "torn";

  ManagedRunConfig resume = persist_config(dir);
  resume.persist.resume = true;
  const ManagedRunReport resumed = ManagedRun(resume).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GE(resumed.checkpoint_generations_rejected, 1u);
  expect_reports_bit_identical(uninterrupted, resumed);

  fs::remove_all(dir_ref);
  fs::remove_all(dir);
}

TEST(Persistence, MismatchedConfigStartsFresh) {
  const std::string dir = test_dir("mismatch");
  ManagedRunConfig killed = persist_config(dir);
  killed.persist.halt_after_steps = 11;
  ASSERT_TRUE(ManagedRun(killed).run().halted);

  // Same directory, different seed: the fingerprint must reject the
  // checkpoint rather than blend state across configurations.
  ManagedRunConfig resume = persist_config(dir);
  resume.persist.resume = true;
  resume.seed = 4141;
  const ManagedRunReport report = ManagedRun(resume).run();
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(report.halted);
  fs::remove_all(dir);
}

TEST(Persistence, ResumeFromEmptyDirectoryStartsFresh) {
  const std::string dir = test_dir("empty");
  ManagedRunConfig config = persist_config(dir);
  config.persist.resume = true;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_FALSE(report.resumed);
  EXPECT_GT(report.checkpoints_persisted, 0u);
  fs::remove_all(dir);
}

TEST(RunSnapshotCodec, RejectsTruncatedAndTrailingBytes) {
  RunSnapshot snapshot;
  snapshot.config_fingerprint = 42;
  snapshot.owners = {0, 1, 2};
  snapshot.owners_nprocs = 4;
  amr::GridHierarchy h({16, 8, 8}, 2, 3);
  snapshot.trace.add(amr::Snapshot{0, h});
  const std::vector<std::uint8_t> bytes = encode_run_snapshot(snapshot);

  const auto ok = decode_run_snapshot(bytes);
  ASSERT_TRUE(ok) << ok.status().to_string();

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(decode_run_snapshot(truncated));

  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode_run_snapshot(padded));
}

TEST(RunSnapshotCodec, RejectsOutOfRangeOwners) {
  RunSnapshot snapshot;
  snapshot.owners = {0, 9};  // owner 9 with only 4 processors
  snapshot.owners_nprocs = 4;
  amr::GridHierarchy h({16, 8, 8}, 2, 3);
  snapshot.trace.add(amr::Snapshot{0, h});
  const auto decoded = decode_run_snapshot(encode_run_snapshot(snapshot));
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kOutOfRange);
}

/// A payload whose owner map section is written by hand: `count` as the
/// run count, then `runs` as (owner, length) pairs, then `nprocs`; every
/// other section is a valid empty snapshot's.  `cut` drops that many bytes
/// from the end of the runs (and everything after them).
std::vector<std::uint8_t> payload_with_owner_runs(
    std::uint32_t count,
    const std::vector<std::pair<std::int32_t, std::uint32_t>>& runs,
    std::int32_t nprocs, std::size_t cut = 0) {
  RunSnapshot snapshot;
  snapshot.owners_nprocs = nprocs;
  snapshot.trace.add(amr::Snapshot{0, amr::GridHierarchy({16, 8, 8}, 2, 3)});
  const std::vector<std::uint8_t> valid = encode_run_snapshot(snapshot);
  // Format tag and progress counters (36 bytes), an empty select list
  // (4), then the run count (4) and owners_nprocs (4) of no runs.
  constexpr std::size_t kRunsAt = 40;
  std::vector<std::uint8_t> out(valid.begin(), valid.begin() + kRunsAt);
  const auto put = [&out](const void* value, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(value);
    out.insert(out.end(), bytes, bytes + size);
  };
  put(&count, sizeof count);
  for (const auto& [owner, length] : runs) {
    put(&owner, sizeof owner);
    put(&length, sizeof length);
  }
  if (cut > 0) {
    out.resize(out.size() - cut);
    return out;
  }
  put(&nprocs, sizeof nprocs);
  out.insert(out.end(), valid.begin() + kRunsAt + 8, valid.end());
  return out;
}

TEST(RunSnapshotCodec, RejectsMalformedOwnerRuns) {
  // The helper's well-formed case decodes, and the encoder writes runs.
  const auto good = decode_run_snapshot(
      payload_with_owner_runs(3, {{0, 3}, {2, 2}, {1, 1}}, 4));
  ASSERT_TRUE(good) << good.status().to_string();
  EXPECT_EQ(good.value().owners, (std::vector<std::int32_t>{0, 0, 0, 2, 2, 1}));
  EXPECT_EQ(encode_run_snapshot(good.value()),
            payload_with_owner_runs(3, {{0, 3}, {2, 2}, {1, 1}}, 4));

  struct Case {
    const char* what;
    std::vector<std::uint8_t> payload;
    util::StatusCode code;
    const char* message;
  };
  const std::uint32_t half = (1u << 25) + 1;
  const std::vector<Case> cases = {
      {"zero length", payload_with_owner_runs(2, {{0, 3}, {1, 0}}, 4),
       util::StatusCode::kInvalidArgument, "zero-length owner run"},
      {"total past the cap",
       payload_with_owner_runs(2, {{0, half}, {1, half}}, 4),
       util::StatusCode::kInvalidArgument, "owner runs cover more than"},
      {"count above the cap", payload_with_owner_runs((1u << 26) + 1, {}, 4),
       util::StatusCode::kInvalidArgument, "exceeds cap"},
      {"count past the buffer", payload_with_owner_runs(1u << 26, {{0, 1}}, 4),
       util::StatusCode::kInvalidArgument, "overruns buffer"},
      {"owner at nprocs", payload_with_owner_runs(2, {{0, 2}, {4, 1}}, 4),
       util::StatusCode::kOutOfRange, "owner id 4 outside [0, 4)"},
      {"truncated last run",
       payload_with_owner_runs(2, {{0, 2}, {1, 1}}, 4, /*cut=*/3),
       util::StatusCode::kInvalidArgument, "overruns buffer"},
  };
  for (const Case& c : cases) {
    const auto decoded = decode_run_snapshot(c.payload);
    ASSERT_FALSE(decoded) << c.what;
    EXPECT_EQ(decoded.status().code(), c.code) << c.what;
    EXPECT_NE(decoded.status().message().find(c.message), std::string::npos)
        << c.what << ": " << decoded.status().to_string();
  }
}

// The checkpoint codec shares the text loader's box check, so a restore
// never rasterizes a box outside its level's domain.
TEST(RunSnapshotCodec, RejectsBoxOutsideLevelDomain) {
  RunSnapshot snapshot;
  snapshot.owners = {0, 1};
  snapshot.owners_nprocs = 2;
  amr::GridHierarchy h({8, 8, 8}, 2, 2);
  h.set_level_boxes(1, {amr::Box({12, 12, 12}, {40, 16, 16})});
  snapshot.trace.add(amr::Snapshot{0, h});
  const auto decoded = decode_run_snapshot(encode_run_snapshot(snapshot));
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(decoded.status().message().find(
                "level 1 box [12,12,12]..[40,16,16]"),
            std::string::npos)
      << decoded.status().to_string();
}

TEST(RunSnapshotCodec, Format1IsUnimplemented) {
  RunSnapshot snapshot;
  snapshot.owners = {0, 1};
  snapshot.owners_nprocs = 2;
  snapshot.trace.add(amr::Snapshot{0, amr::GridHierarchy({16, 8, 8}, 2, 3)});
  std::vector<std::uint8_t> payload = encode_run_snapshot(snapshot);
  ASSERT_TRUE(decode_run_snapshot(payload));
  const std::uint32_t format1 = 1;
  std::memcpy(payload.data(), &format1, sizeof format1);
  const auto decoded = decode_run_snapshot(payload);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kUnimplemented);
}

/// Every persisted scalar of RunSnapshot, ManagedRunReport and
/// ManagedStepRecord, listed independently of the codec's own field lists
/// so that a field missing from both directions of the codec still fails
/// RoundTripsEveryFieldBitwise.  The vectors (select_indices, owners,
/// trace, records) are checked separately.  The report's per-process
/// fields (checkpoints_persisted, checkpoint_generations_rejected, halted,
/// resumed) are not persisted.
#define PRAGMA_PERSISTED_SNAPSHOT_FIELDS(X)                               \
  X(config_fingerprint) X(completed_steps) X(emulator_step) X(sim_clock) \
  X(max_box_cells) X(owners_nprocs)
#define PRAGMA_PERSISTED_REPORT_FIELDS(X)                                 \
  X(total_time_s) X(regrids) X(repartitions) X(agent_events)             \
  X(adm_decisions) X(event_repartitions) X(migrations)                   \
  X(partitioner_switches) X(checkpoints) X(checkpoint_time_s)            \
  X(detected_failures) X(suspects) X(false_suspects)                     \
  X(detector_recoveries) X(detection_latency_s) X(recovery_time_s)       \
  X(cells_advanced) X(recomputed_cells) X(lost_directives)               \
  X(directive_retries) X(directives_abandoned) X(messages_lost)          \
  X(messages_partition_dropped) X(duplicates_suppressed)                 \
  X(heartbeats_received)
#define PRAGMA_PERSISTED_RECORD_FIELDS(X)                                 \
  X(step) X(octant) X(partitioner) X(sim_time_s) X(step_time_s)          \
  X(imbalance) X(live_nodes) X(repartitioned) X(recovery_s)              \
  X(lost_cells) X(detection_s)

/// A distinct non-default value per field, numbered by `k`.
void fill(std::string& value, int k) {
  value = std::string("v").append(std::to_string(k));
}
void fill(bool& value, int /*k*/) { value = true; }
void fill(double& value, int k) { value = k + 0.25; }
template <class T>
void fill(T& value, int k) {
  value = static_cast<T>(k);
}

TEST(RunSnapshotCodec, RoundTripsEveryFieldBitwise) {
  int k = 0;
  RunSnapshot original;
#define PRAGMA_FILL(field) fill(original.field, ++k);
  PRAGMA_PERSISTED_SNAPSHOT_FIELDS(PRAGMA_FILL)
#undef PRAGMA_FILL
#define PRAGMA_FILL(field) fill(original.report.field, ++k);
  PRAGMA_PERSISTED_REPORT_FIELDS(PRAGMA_FILL)
#undef PRAGMA_FILL
  original.report.records.resize(2);
  for (ManagedStepRecord& record : original.report.records) {
#define PRAGMA_FILL(field) fill(record.field, ++k);
    PRAGMA_PERSISTED_RECORD_FIELDS(PRAGMA_FILL)
#undef PRAGMA_FILL
  }
  original.select_indices = {0, 1, 1};
  original.owners = {0, 2, 1, 0};
  amr::GridHierarchy first({16, 8, 8}, 2, 3);
  amr::GridHierarchy second = first;
  second.set_level_boxes(1, {amr::Box({2, 2, 2}, {9, 5, 5})});
  original.trace.add(amr::Snapshot{0, first});
  original.trace.add(amr::Snapshot{4, second});

  const std::vector<std::uint8_t> payload = encode_run_snapshot(original);
  const util::Expected<RunSnapshot> decoded = decode_run_snapshot(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  const RunSnapshot& snapshot = decoded.value();
  const RunSnapshot defaults;
  const ManagedStepRecord default_record;
  // Every persisted field holds a non-default value and comes back
  // exactly (doubles bit for bit).
#define PRAGMA_EXPECT_ROUND_TRIP(field)                                   \
  EXPECT_NE(original.field, defaults.field) << #field " holds its default"; \
  EXPECT_EQ(snapshot.field, original.field) << #field;
  PRAGMA_PERSISTED_SNAPSHOT_FIELDS(PRAGMA_EXPECT_ROUND_TRIP)
#undef PRAGMA_EXPECT_ROUND_TRIP
#define PRAGMA_EXPECT_ROUND_TRIP(field)                                   \
  EXPECT_NE(original.report.field, defaults.report.field)                 \
      << #field " holds its default";                                     \
  EXPECT_EQ(snapshot.report.field, original.report.field) << #field;
  PRAGMA_PERSISTED_REPORT_FIELDS(PRAGMA_EXPECT_ROUND_TRIP)
#undef PRAGMA_EXPECT_ROUND_TRIP
  ASSERT_EQ(snapshot.report.records.size(), original.report.records.size());
  for (std::size_t i = 0; i < original.report.records.size(); ++i) {
    const ManagedStepRecord& want = original.report.records[i];
    const ManagedStepRecord& got = snapshot.report.records[i];
#define PRAGMA_EXPECT_ROUND_TRIP(field)                                   \
  EXPECT_NE(want.field, default_record.field) << #field " holds its default"; \
  EXPECT_EQ(got.field, want.field) << "record " << i << " " #field;
    PRAGMA_PERSISTED_RECORD_FIELDS(PRAGMA_EXPECT_ROUND_TRIP)
#undef PRAGMA_EXPECT_ROUND_TRIP
  }
  EXPECT_EQ(snapshot.select_indices, original.select_indices);
  EXPECT_EQ(snapshot.owners, original.owners);
  ASSERT_EQ(snapshot.trace.size(), original.trace.size());
  for (std::size_t i = 0; i < original.trace.size(); ++i) {
    const amr::Snapshot& want = original.trace.at(i);
    const amr::Snapshot& got = snapshot.trace.at(i);
    EXPECT_EQ(got.step, want.step) << "snapshot " << i;
    ASSERT_EQ(got.hierarchy.num_levels(), want.hierarchy.num_levels());
    for (int l = 0; l < want.hierarchy.num_levels(); ++l)
      EXPECT_EQ(got.hierarchy.level(l).boxes, want.hierarchy.level(l).boxes)
          << "snapshot " << i << " level " << l;
  }
  EXPECT_EQ(encode_run_snapshot(snapshot), payload);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// The libFuzzer seeds in fuzz/corpus/checkpoint, written by the current
/// encoder: valid.ckpt is a small hand-built snapshot (no records, a
/// 2-snapshot trace); managed.ckpt is generation 3 of a real persisted
/// run (64x16x16 base grid, 24 steps, 4 procs, capacity spread 0.35,
/// background load, system-sensitive, ft on with drop 0.05, 5 s
/// checkpoint interval, node 3 failing at 20 s for 30 s) with 4 regrid
/// records and a 5-snapshot trace; managed200.ckpt is the last generation
/// of the run ci/managed_report_reference.out pins (a full 16,384-cell
/// owner map); torn.ckpt cuts valid.ckpt to 100 bytes; bitflip.ckpt flips
/// bit 6 of valid.ckpt's byte 200, inside the payload.  A payload format
/// change must regenerate them, or the fuzzer explores stale bytes.
TEST(CheckpointCorpus, SeedsDecodeWithCurrentCodec) {
  const std::string corpus = std::string(PRAGMA_SOURCE_DIR) +
                             "/fuzz/corpus/checkpoint/";
  for (const char* name : {"valid.ckpt", "managed.ckpt", "managed200.ckpt"}) {
    const std::vector<std::uint8_t> bytes = read_file(corpus + name);
    const util::Expected<std::vector<std::uint8_t>> payload =
        io::decode_envelope(bytes);
    ASSERT_TRUE(payload.has_value())
        << name << ": " << payload.status().to_string();
    const util::Expected<RunSnapshot> snapshot =
        decode_run_snapshot(payload.value());
    ASSERT_TRUE(snapshot.has_value())
        << name << ": " << snapshot.status().to_string();
    EXPECT_EQ(io::encode_envelope(encode_run_snapshot(snapshot.value())),
              bytes)
        << name;
  }
  const util::Expected<RunSnapshot> managed = decode_run_snapshot(
      io::decode_envelope(read_file(corpus + "managed.ckpt")).value());
  EXPECT_GE(managed.value().report.records.size(), 2u);
  EXPECT_GE(managed.value().trace.size(), 3u);
  // The whole 200-step checkpoint fits the fuzz-smoke job's -max_len.
  const std::vector<std::uint8_t> full = read_file(corpus + "managed200.ckpt");
  EXPECT_LE(full.size(), 65536u);
  const util::Expected<RunSnapshot> managed200 =
      decode_run_snapshot(io::decode_envelope(full).value());
  EXPECT_EQ(managed200.value().owners.size(), 16384u);
  EXPECT_GE(managed200.value().report.records.size(), 40u);

  for (const char* name : {"torn.ckpt", "bitflip.ckpt"}) {
    const util::Expected<std::vector<std::uint8_t>> payload =
        io::decode_envelope(read_file(corpus + name));
    ASSERT_FALSE(payload.has_value()) << name;
    EXPECT_EQ(payload.status().code(), util::StatusCode::kDataLoss) << name;
  }
}

}  // namespace
}  // namespace pragma::core
