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

/// Every persisted report field, compared bit for bit through the
/// checkpoint codec's own encoding (the per-process fields are left out).
void expect_reports_bit_identical(const ManagedRunReport& a,
                                  const ManagedRunReport& b) {
  EXPECT_TRUE(encode_report(a) == encode_report(b))
      << "total_time_s " << a.total_time_s << " vs " << b.total_time_s;
}

/// SIGKILL `config`'s run after `steps` coarse steps: run that far, then
/// destroy the run, which keeps only the generations already written.
/// False unless the run stopped exactly there.
bool kill_after(const ManagedRunConfig& config, int steps) {
  ManagedRun run(config);
  return run.run_until(steps) && run.completed_steps() == steps;
}

TEST(Persistence, DisabledWritesNothing) {
  ManagedRunConfig config;
  config.app.coarse_steps = 20;
  config.nprocs = 8;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_EQ(report.checkpoints_persisted, 0u);
  EXPECT_FALSE(report.resumed);
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
  {
    ManagedRun run(persist_config(dir));
    EXPECT_TRUE(run.run_until(13));
    EXPECT_EQ(run.completed_steps(), 13);
  }
  io::CheckpointStoreOptions options;
  options.dir = dir;
  EXPECT_FALSE(io::CheckpointStore(options).generations().empty());
  fs::remove_all(dir);
}

TEST(Persistence, KillThenResumeMatchesUninterruptedBitwise) {
  const std::string dir_ref = test_dir("kr_ref");
  const std::string dir = test_dir("kr");

  const ManagedRunReport uninterrupted =
      ManagedRun(persist_config(dir_ref)).run();

  ASSERT_TRUE(kill_after(persist_config(dir), 17));

  ManagedRunConfig resume = persist_config(dir);
  resume.persist.resume = true;
  const ManagedRunReport resumed = ManagedRun(resume).run();
  EXPECT_TRUE(resumed.resumed);
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
    ASSERT_TRUE(kill_after(killed, halt_at));
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

  ASSERT_TRUE(kill_after(persist_config(dir), 21));

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
  // Same directory, one run-shaping value changed: the fingerprint must
  // reject the checkpoint rather than blend state across configurations.
  struct Case {
    const char* what;
    void (*change)(ManagedRunConfig&);
  };
  const Case cases[] = {
      {"seed", [](ManagedRunConfig& c) { c.seed = 4141; }},
      {"exec.flops_per_cell_update",
       [](ManagedRunConfig& c) { c.exec.flops_per_cell_update = 6000.0; }},
      {"load.mean_cpu_load",
       [](ManagedRunConfig& c) { c.load.mean_cpu_load = 0.6; }},
      {"weights", [](ManagedRunConfig& c) { c.weights = {1.0, 0.0, 0.0}; }},
      {"checkpoint_interval_s",
       [](ManagedRunConfig& c) { c.checkpoint_interval_s = 5.0; }},
      {"app.thresholds",
       [](ManagedRunConfig& c) { c.app.thresholds[0] *= 1.5; }},
  };
  for (const Case& c : cases) {
    const std::string dir = test_dir("mismatch");
    const ManagedRunConfig killed = persist_config(dir);
    ASSERT_TRUE(kill_after(killed, 11)) << c.what;

    ManagedRunConfig resume = persist_config(dir);
    resume.persist.resume = true;
    c.change(resume);
    EXPECT_NE(config_fingerprint(resume), config_fingerprint(killed))
        << c.what;
    const ManagedRunReport report = ManagedRun(resume).run();
    EXPECT_FALSE(report.resumed) << c.what;
    EXPECT_GE(report.checkpoint_generations_rejected, 1u) << c.what;
    fs::remove_all(dir);
  }
}

// An ft run resumes bit-identically too: fast-forwarding the control plane
// replays the lossy channel's, the protocol's and the detector's draws.
// The cases come from a grid of 216 (seeds {40, 41, 977} x checkpoint
// intervals {1e-6, 5, 25} s x node-3 failure at 20 s for 60 s, on or off
// x drop {0, 0.05, 0.2} x kill steps {7, 19, 33, 48}) that all matched;
// 204 of them restored a generation.
TEST(Persistence, FtKillResumeMatchesUninterruptedBitwise) {
  struct Case {
    std::uint64_t seed;
    double interval_s;
    bool node_failure;
    double drop;
    int kill_at;
  };
  const Case cases[] = {
      {40, 5.0, true, 0.05, 19},   {41, 25.0, true, 0.05, 33},
      {977, 25.0, true, 0.2, 48},  {977, 5.0, true, 0.0, 7},
      {41, 1e-6, false, 0.05, 33},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "seed " << c.seed << ", interval " << c.interval_s
                 << " s, failure " << c.node_failure << ", drop " << c.drop
                 << ", kill at " << c.kill_at);
    const auto config_for = [&c](const std::string& dir) {
      ManagedRunConfig config = persist_config(dir, 60);
      config.capacity_spread = 0.35;
      config.with_background_load = true;
      config.system_sensitive = true;
      config.seed = c.seed;
      config.ft.enabled = true;
      config.ft.channel.drop_probability = c.drop;
      config.checkpoint_interval_s = c.interval_s;
      return config;
    };
    const auto armed = [&c](ManagedRun& run) -> ManagedRun& {
      if (c.node_failure) run.schedule_failure(20.0, 3, 60.0);
      return run;
    };
    const std::string dir_ref = test_dir("ft_ref");
    const std::string dir = test_dir("ft");
    ManagedRun whole(config_for(dir_ref));
    const ManagedRunReport uninterrupted = armed(whole).run();
    {
      ManagedRun killed(config_for(dir));
      ASSERT_TRUE(armed(killed).run_until(c.kill_at));
    }
    ManagedRunConfig resume = config_for(dir);
    resume.persist.resume = true;
    ManagedRun resumed_run(resume);
    const ManagedRunReport resumed = armed(resumed_run).run();
    EXPECT_TRUE(resumed.resumed);
    expect_reports_bit_identical(uninterrupted, resumed);
    fs::remove_all(dir_ref);
    fs::remove_all(dir);
  }
}

// The persistence knobs are not part of the fingerprint: a resume may
// keep a different number of generations.
TEST(Persistence, ResumeWithOtherRetentionMatchesUninterruptedBitwise) {
  const std::string dir_ref = test_dir("keep_ref");
  const std::string dir = test_dir("keep");
  const ManagedRunReport uninterrupted =
      ManagedRun(persist_config(dir_ref)).run();

  ASSERT_TRUE(kill_after(persist_config(dir), 17));

  ManagedRunConfig resume = persist_config(dir);
  resume.persist.resume = true;
  resume.persist.keep_last_n = 3;
  const ManagedRunReport resumed = ManagedRun(resume).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.checkpoint_generations_rejected, 0u);
  expect_reports_bit_identical(uninterrupted, resumed);

  fs::remove_all(dir_ref);
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

// The checkpoint codec checks every trace box against its level's domain,
// so a restore never rasterizes a box outside it.
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
/// fields (checkpoints_persisted, checkpoint_generations_rejected,
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
/// change must regenerate them, or the fuzzer explores stale bytes; so
/// must a config_fingerprint change, which the two real-run seeds carry.
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
  ManagedRunConfig lossy;
  lossy.capacity_spread = 0.35;
  lossy.with_background_load = true;
  lossy.system_sensitive = true;
  lossy.ft.enabled = true;
  lossy.ft.channel.drop_probability = 0.05;
  const util::Expected<RunSnapshot> managed = decode_run_snapshot(
      io::decode_envelope(read_file(corpus + "managed.ckpt")).value());
  EXPECT_GE(managed.value().report.records.size(), 2u);
  EXPECT_GE(managed.value().trace.size(), 3u);
  ManagedRunConfig small = lossy;
  small.app.base_dims = {64, 16, 16};
  small.app.coarse_steps = 24;
  small.nprocs = 4;
  small.checkpoint_interval_s = 5.0;
  EXPECT_EQ(managed.value().config_fingerprint, config_fingerprint(small));
  // The whole 200-step checkpoint fits the fuzz-smoke job's -max_len.
  const std::vector<std::uint8_t> full = read_file(corpus + "managed200.ckpt");
  EXPECT_LE(full.size(), 65536u);
  const util::Expected<RunSnapshot> managed200 =
      decode_run_snapshot(io::decode_envelope(full).value());
  EXPECT_EQ(managed200.value().owners.size(), 16384u);
  EXPECT_GE(managed200.value().report.records.size(), 40u);
  ManagedRunConfig full_run = lossy;
  full_run.app.coarse_steps = 200;
  full_run.modeled_partition_s_per_cell = kModeledPartitionSPerCell;
  EXPECT_EQ(managed200.value().config_fingerprint,
            config_fingerprint(full_run));

  for (const char* name : {"torn.ckpt", "bitflip.ckpt"}) {
    const util::Expected<std::vector<std::uint8_t>> payload =
        io::decode_envelope(read_file(corpus + name));
    ASSERT_FALSE(payload.has_value()) << name;
    EXPECT_EQ(payload.status().code(), util::StatusCode::kDataLoss) << name;
  }
}

}  // namespace
}  // namespace pragma::core
