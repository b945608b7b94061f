// Batched admission pipeline tests: batch-vs-loop identity, derived-run
// coalescing, the kBatch WAL frame (single sealed append, crash
// recovery, torn/malformed interiors), single-mutex admission under
// concurrent submitters, and per-item shed statuses with the structured
// ShedInfo classification.
//
// GCC 12 at -O3 reports spurious -Wrestrict on libstdc++'s own
// basic_string::assign when RunSpec string fields are set in a loop, and
// spurious -Wmaybe-uninitialized on vector members of copied RunSpecs.
#pragma GCC diagnostic ignored "-Wrestrict"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "pragma/service/admission.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/service/workbench.hpp"
#include "pragma/service/worker.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("pragma-batch-test-" + std::to_string(::getpid()) + "-" +
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

/// A small managed spec whose execution is fully modeled, so reruns are
/// bitwise reproducible.
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

// ---------------------------------------------------------------------------
// ShedInfo classification
// ---------------------------------------------------------------------------

TEST(ShedInfoTest, TaggedStatusRoundTripsReasonAndHint) {
  const util::Status shed = shed_status(util::StatusCode::kUnavailable,
                                        ShedReason::kQueueFull,
                                        "admission queue full (4/4)", 50);
  const ShedInfo info = shed_info(shed);
  EXPECT_EQ(info.reason, ShedReason::kQueueFull);
  EXPECT_EQ(info.retry_after_ms, 50);
  EXPECT_TRUE(ShedInfo::retryable(shed));
  // The human-readable prefix survives the tagging.
  EXPECT_NE(shed.message().find("admission queue full"), std::string::npos);
}

TEST(ShedInfoTest, ClassificationMatchesTheLadderTable) {
  // Retryable backpressure rungs.
  for (const ShedReason reason :
       {ShedReason::kRateLimited, ShedReason::kQueueFull,
        ShedReason::kJournalSaturated, ShedReason::kBudgetExhausted}) {
    const util::Status shed =
        shed_status(util::StatusCode::kUnavailable, reason, "m", 10);
    EXPECT_TRUE(ShedInfo::retryable(shed)) << to_string(reason);
    EXPECT_EQ(shed_info(shed).reason, reason);
  }
  // Terminal rejections: retrying the same spec cannot help.
  EXPECT_FALSE(ShedInfo::retryable(shed_status(
      util::StatusCode::kOutOfRange, ShedReason::kPayloadTooLarge, "m", -1)));
  EXPECT_FALSE(ShedInfo::retryable(shed_status(
      util::StatusCode::kUnavailable, ShedReason::kShuttingDown, "m", -1)));
}

TEST(ShedInfoTest, UntaggedStatusFallsBackToCodeConvention) {
  EXPECT_TRUE(ShedInfo::retryable(util::Status::unavailable("plain")));
  EXPECT_TRUE(
      ShedInfo::retryable(util::Status::resource_exhausted("plain")));
  EXPECT_FALSE(ShedInfo::retryable(util::Status::internal("broken")));
  const ShedInfo info = shed_info(util::Status::unavailable("plain"));
  EXPECT_EQ(info.reason, ShedReason::kNone);
  EXPECT_EQ(info.retry_after_ms, -1);
}

// ---------------------------------------------------------------------------
// Batch vs loop identity
// ---------------------------------------------------------------------------

TEST(BatchIdentityTest, BatchOutcomesMatchSingleSubmitLoop) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 4; ++i)
    specs.push_back(small_managed_spec("b" + std::to_string(i),
                                       static_cast<std::uint64_t>(30 + i)));

  auto loop_rt = Runtime::Builder{}.workers(1).build();
  std::vector<RunOutcome> loop_outcomes;
  for (const RunSpec& spec : specs) loop_outcomes.push_back(loop_rt.run(spec));

  auto batch_rt = Runtime::Builder{}.workers(1).build();
  std::vector<util::Expected<RunHandle>> handles =
      batch_rt.submit_batch(specs);
  ASSERT_EQ(handles.size(), specs.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].has_value()) << handles[i].status().to_string();
    const RunOutcome& outcome = handles[i].value().wait();
    ASSERT_EQ(outcome.state, RunState::kCompleted);
    EXPECT_EQ(outcome.managed.total_time_s,
              loop_outcomes[i].managed.total_time_s);
    EXPECT_EQ(outcome.managed.regrids, loop_outcomes[i].managed.regrids);
    EXPECT_EQ(outcome.managed.cells_advanced,
              loop_outcomes[i].managed.cells_advanced);
  }
  const SchedulerStats stats = batch_rt.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_specs, specs.size());
  EXPECT_EQ(stats.submitted, specs.size());
  EXPECT_EQ(stats.coalesced, 0u);  // distinct seeds: nothing to coalesce
}

// ---------------------------------------------------------------------------
// Derived-run coalescing
// ---------------------------------------------------------------------------

TEST(CoalescingTest, IdenticalSpecsInOneBatchShareOneExecution) {
  auto runtime = Runtime::Builder{}.workers(2).build();
  std::vector<RunSpec> specs;
  specs.push_back(small_managed_spec("dup", 7));
  specs.push_back(small_managed_spec("dup", 7));   // identical: coalesces
  specs.push_back(small_managed_spec("dup", 8));   // distinct seed: its own run
  std::vector<util::Expected<RunHandle>> handles =
      runtime.submit_batch(std::move(specs));
  ASSERT_EQ(handles.size(), 3u);
  for (const auto& handle : handles) ASSERT_TRUE(handle.has_value());

  // The duplicate attaches to the primary's ticket: same run id, and
  // wait() hands every holder the very same outcome object.
  EXPECT_EQ(handles[0].value().id(), handles[1].value().id());
  EXPECT_EQ(&handles[0].value().wait(), &handles[1].value().wait());
  // The derived run with a different seed keeps its own execution.
  EXPECT_NE(handles[0].value().id(), handles[2].value().id());
  EXPECT_NE(&handles[0].value().wait(), &handles[2].value().wait());
  EXPECT_EQ(handles[2].value().wait().state, RunState::kCompleted);

  const SchedulerStats stats = runtime.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.submitted, 2u);  // two executions for three specs
  EXPECT_EQ(stats.batch_specs, 3u);
}

TEST(CoalescingTest, SingleSubmitNeverCoalesces) {
  auto runtime = Runtime::Builder{}.workers(2).build();
  util::Expected<RunHandle> a = runtime.submit(small_managed_spec("dup", 7));
  util::Expected<RunHandle> b = runtime.submit(small_managed_spec("dup", 7));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a.value().id(), b.value().id());
  runtime.drain();
  EXPECT_EQ(runtime.stats().coalesced, 0u);
}

// ---------------------------------------------------------------------------
// The kBatch WAL frame
// ---------------------------------------------------------------------------

TEST(BatchJournalTest, AppendBatchSealsOneFrameWithOneFsync) {
  TempDir dir;
  Journal journal(journal_config(dir));
  ASSERT_TRUE(journal.open().has_value());

  std::vector<RunSpec> specs;
  std::vector<const RunSpec*> pointers;
  for (int i = 0; i < 3; ++i)
    specs.push_back(small_managed_spec("j" + std::to_string(i),
                                       static_cast<std::uint64_t>(i)));
  for (const RunSpec& spec : specs) pointers.push_back(&spec);

  util::Expected<std::vector<std::uint64_t>> seqs =
      journal.append_batch(pointers);
  ASSERT_TRUE(seqs.has_value()) << seqs.status().to_string();
  EXPECT_EQ(seqs.value(), (std::vector<std::uint64_t>{1, 2, 3}));

  const JournalStats stats = journal.stats();
  EXPECT_EQ(stats.batch_appends, 1u);
  EXPECT_EQ(stats.appends, 3u);  // the batch counts per item
  EXPECT_EQ(stats.fsyncs, 1u);   // ...but seals with ONE fsync
  EXPECT_EQ(stats.live_pending, 3u);

  // On disk: the file header plus exactly one kBatch frame that the
  // scanner expands back into the three pending records, payloads byte-
  // identical to the individual encoding.
  const JournalScan scan = scan_journal_file(read_file(journal.active_path()));
  ASSERT_TRUE(scan.tail.is_ok()) << scan.tail.to_string();
  ASSERT_EQ(scan.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan.records[i].type, JournalRecordType::kPending);
    EXPECT_EQ(scan.records[i].seq, i + 1);
    EXPECT_EQ(scan.records[i].payload, encode_run_spec(specs[i]));
  }
}

TEST(BatchJournalTest, BatchOfOneIsByteIdenticalToSingleAppend) {
  TempDir single_dir;
  TempDir batch_dir;
  const RunSpec spec = small_managed_spec("solo", 11);
  {
    Journal journal(journal_config(single_dir));
    ASSERT_TRUE(journal.open().has_value());
    ASSERT_TRUE(journal.append(spec).has_value());
  }
  std::string batch_active;
  {
    Journal journal(journal_config(batch_dir));
    ASSERT_TRUE(journal.open().has_value());
    ASSERT_TRUE(journal.append_batch({&spec}).has_value());
    batch_active = journal.active_path();
  }
  Journal single(journal_config(single_dir));
  ASSERT_TRUE(single.open().has_value());
  EXPECT_EQ(read_file(single.active_path()), read_file(batch_active));
}

TEST(BatchJournalTest, BatchSurvivesKillAndRecoversInOrder) {
  TempDir dir;
  std::vector<RunSpec> specs;
  for (int i = 0; i < 4; ++i)
    specs.push_back(small_managed_spec("r" + std::to_string(i),
                                       static_cast<std::uint64_t>(100 + i)));
  {
    Journal journal(journal_config(dir));
    ASSERT_TRUE(journal.open().has_value());
    std::vector<const RunSpec*> pointers;
    for (const RunSpec& spec : specs) pointers.push_back(&spec);
    ASSERT_TRUE(journal.append_batch(pointers).has_value());
    // Journal destroyed without tombstones: the process "died" here.
  }
  Journal reopened(journal_config(dir));
  util::Expected<JournalRecovery> recovery = reopened.open();
  ASSERT_TRUE(recovery.has_value()) << recovery.status().to_string();
  ASSERT_EQ(recovery.value().pending.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recovery.value().pending[i].spec.name, specs[i].name);
    // The recovered spec re-encodes byte-identically to the original.
    EXPECT_EQ(encode_run_spec(recovery.value().pending[i].spec),
              encode_run_spec(specs[i]));
  }
}

TEST(BatchJournalTest, TornBatchFrameLosesOnlyThatFrame) {
  std::vector<std::uint8_t> image = io::encode_log_header();
  std::vector<JournalRecord> first;
  std::vector<JournalRecord> second;
  for (std::uint64_t seq = 1; seq <= 3; ++seq)
    first.push_back({JournalRecordType::kPending, seq,
                     encode_run_spec(small_managed_spec("a", seq))});
  for (std::uint64_t seq = 4; seq <= 5; ++seq)
    second.push_back({JournalRecordType::kPending, seq,
                      encode_run_spec(small_managed_spec("b", seq))});
  const auto f1 = encode_journal_batch_record(first);
  const auto f2 = encode_journal_batch_record(second);
  image.insert(image.end(), f1.begin(), f1.end());
  const std::size_t intact = image.size();
  // Crash mid-append: only half of the second batch frame hit the disk.
  image.insert(image.end(), f2.begin(), f2.begin() + f2.size() / 2);

  const JournalScan scan = scan_journal_file(image);
  EXPECT_EQ(scan.records.size(), 3u);  // the whole first batch, in order
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_FALSE(scan.tail.is_ok());
}

TEST(BatchJournalTest, MalformedBatchInteriorStopsWithoutPartialRecords) {
  std::vector<std::uint8_t> image = io::encode_log_header();
  // A CRC-valid frame whose interior lies: it claims five items but
  // carries only the count word.
  std::vector<std::uint8_t> payload(4, 0);
  const std::uint32_t count = 5;
  std::memcpy(payload.data(), &count, sizeof count);
  const auto frame =
      encode_journal_record(JournalRecordType::kBatch, 1, payload);
  image.insert(image.end(), frame.begin(), frame.end());

  const JournalScan scan = scan_journal_file(image);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail.code(), util::StatusCode::kDataLoss);
}

TEST(BatchJournalTest, RuntimeBatchJournalsOnceAndTombstonesAll) {
  TempDir dir;
  auto runtime =
      Runtime::Builder{}.workers(2).journal(journal_config(dir)).build();
  ASSERT_NE(runtime.journal(), nullptr);
  std::vector<RunSpec> specs;
  for (int i = 0; i < 6; ++i)
    specs.push_back(small_managed_spec("jr" + std::to_string(i),
                                       static_cast<std::uint64_t>(i)));
  std::vector<util::Expected<RunHandle>> handles =
      runtime.submit_batch(std::move(specs));
  for (auto& handle : handles) {
    ASSERT_TRUE(handle.has_value());
    EXPECT_EQ(handle.value().wait().state, RunState::kCompleted);
  }
  runtime.drain();
  const JournalStats stats = runtime.journal()->stats();
  EXPECT_EQ(stats.batch_appends, 1u);
  EXPECT_EQ(stats.appends, 6u);
  EXPECT_EQ(stats.tombstones, 6u);
  EXPECT_EQ(stats.live_pending, 0u);
}

// ---------------------------------------------------------------------------
// Partial-batch sheds
// ---------------------------------------------------------------------------

TEST(PartialBatchTest, QueueFullShedsTheOverflowWithPerItemStatuses) {
  SchedulerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  util::ThreadPool pool(1);
  Scheduler scheduler(config, &pool);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  std::vector<RunSpec> specs;
  for (int i = 0; i < 6; ++i) {
    RunSpec spec;
    spec.name = "g" + std::to_string(i);
    spec.kind = WorkloadKind::kCustom;
    spec.custom = [release](RunContext&) {
      release.wait();
      return util::Status::ok();
    };
    specs.push_back(std::move(spec));
  }
  std::vector<util::Expected<RunHandle>> handles =
      scheduler.submit_batch(std::move(specs));
  ASSERT_EQ(handles.size(), 6u);

  std::size_t admitted = 0;
  for (const auto& handle : handles) {
    if (handle.has_value()) {
      ++admitted;
      continue;
    }
    // Every shed slot carries the structured queue-full classification
    // and a retry hint — exactly what submit_batch_with_retry consumes.
    EXPECT_EQ(handle.status().code(), util::StatusCode::kUnavailable);
    const ShedInfo info = shed_info(handle.status());
    EXPECT_EQ(info.reason, ShedReason::kQueueFull);
    EXPECT_EQ(info.retry_after_ms, config.shed_retry_after_ms);
    EXPECT_TRUE(ShedInfo::retryable(handle.status()));
  }
  // Prefix admitted, suffix shed: results stay index-aligned.
  for (std::size_t i = 0; i < admitted; ++i)
    EXPECT_TRUE(handles[i].has_value());
  EXPECT_GE(admitted, config.queue_capacity);
  EXPECT_LT(admitted, 6u);
  EXPECT_EQ(scheduler.stats().shed_queue_full, 6u - admitted);

  gate.set_value();
  scheduler.drain();
}

TEST(PartialBatchTest, RateLimitedTenantShedsWithTokenDeficitHint) {
  SchedulerConfig config;
  config.workers = 1;
  config.rate_limit.rate_per_s = 1.0;
  config.rate_limit.burst = 1.0;
  util::ThreadPool pool(1);
  Scheduler scheduler(config, &pool);

  std::vector<RunSpec> specs;
  for (int i = 0; i < 2; ++i)
    specs.push_back(small_managed_spec("rl" + std::to_string(i),
                                       static_cast<std::uint64_t>(i)));
  std::vector<util::Expected<RunHandle>> handles =
      scheduler.submit_batch(std::move(specs));
  ASSERT_TRUE(handles[0].has_value());
  ASSERT_FALSE(handles[1].has_value());
  const ShedInfo info = shed_info(handles[1].status());
  EXPECT_EQ(info.reason, ShedReason::kRateLimited);
  EXPECT_GT(info.retry_after_ms, 0);
  scheduler.drain();
  EXPECT_EQ(scheduler.stats().shed_rate_limited, 1u);
}

TEST(PartialBatchTest, SubmitBatchWithRetryResubmitsOnlyShedSlots) {
  auto runtime = Runtime::Builder{}.workers(2).queue_capacity(2).build();
  std::atomic<int> executions{0};
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  std::vector<RunSpec> specs;
  for (int i = 0; i < 8; ++i) {
    RunSpec spec;
    spec.name = "retry" + std::to_string(i);
    spec.kind = WorkloadKind::kCustom;
    spec.custom = [release, &executions](RunContext&) {
      release.wait();
      executions.fetch_add(1);
      return util::Status::ok();
    };
    specs.push_back(std::move(spec));
  }
  gate.set_value();  // runs finish instantly; retries drain the backlog
  RetryBackoff backoff;
  backoff.base_ms = 5;
  backoff.max_attempts = 64;
  std::vector<util::Expected<RunHandle>> handles =
      submit_batch_with_retry(runtime, std::move(specs), backoff);
  for (auto& handle : handles) {
    ASSERT_TRUE(handle.has_value()) << handle.status().to_string();
    EXPECT_EQ(handle.value().wait().state, RunState::kCompleted);
  }
  EXPECT_EQ(executions.load(), 8);
}

// ---------------------------------------------------------------------------
// Single-mutex admission under concurrent submitters
// ---------------------------------------------------------------------------

TEST(ConcurrentAdmissionTest, SixteenThreadsSubmitWithoutRacesOrLoss) {
  constexpr int kThreads = 16;
  constexpr int kPerThread = 32;
  SchedulerConfig config;
  config.workers = 4;
  config.queue_capacity = kThreads * kPerThread;
  util::ThreadPool pool(4);
  Scheduler scheduler(config, &pool);

  std::atomic<int> executions{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scheduler, &executions, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RunSpec spec;
        spec.tenant = "tenant-" + std::to_string(t % 5);
        spec.name = "s" + std::to_string(t) + "-" + std::to_string(i);
        spec.kind = WorkloadKind::kCustom;
        spec.custom = [&executions](RunContext&) {
          executions.fetch_add(1);
          return util::Status::ok();
        };
        if (i % 4 == 0) {
          // Mix batched and single admission on every thread.
          std::vector<RunSpec> batch;
          batch.push_back(std::move(spec));
          auto handles = scheduler.submit_batch(std::move(batch));
          ASSERT_TRUE(handles[0].has_value())
              << handles[0].status().to_string();
        } else {
          auto handle = scheduler.submit(std::move(spec));
          ASSERT_TRUE(handle.has_value()) << handle.status().to_string();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  scheduler.drain();

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(executions.load(), kThreads * kPerThread);
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// RunHandles from the distributed backend
// ---------------------------------------------------------------------------

TEST(DistributedAdmissionTest, BatchOfHandlesResolvesThroughTheCoordinator) {
  DistributedConfig config;
  config.dispatch_period_s = 0.25;
  DistributedService service(config, /*seed=*/44);
  service.add_worker("w0");
  service.add_worker("w1");

  std::atomic<int> executions{0};
  std::vector<util::Expected<RunHandle>> handles;
  for (int i = 0; i < 3; ++i) {
    RunSpec spec;
    spec.name = "d" + std::to_string(i);
    spec.kind = WorkloadKind::kCustom;
    spec.custom = [&executions](RunContext&) {
      executions.fetch_add(1);
      return util::Status::ok();
    };
    handles.push_back(service.submit_run(std::move(spec)));
  }
  for (const auto& handle : handles) ASSERT_TRUE(handle.has_value());

  ASSERT_TRUE(service.run_until_done().is_ok());
  for (auto& handle : handles) {
    EXPECT_EQ(handle.value().wait().state, RunState::kCompleted);
    EXPECT_FALSE(handle.value().cancel());  // terminal: nothing to cancel
  }
  EXPECT_EQ(executions.load(), 3);
}

TEST(DistributedAdmissionTest, QueueFullShedNowCarriesTheRetryHint) {
  DistributedConfig config;
  config.queue_capacity = 1;
  DistributedService service(config, /*seed=*/44);
  // No workers: admitted runs sit queued, so the second submit overflows.
  RunSpec quick;
  quick.kind = WorkloadKind::kCustom;
  quick.custom = [](RunContext&) { return util::Status::ok(); };

  util::Expected<RunHandle> first = service.submit_run(quick);
  ASSERT_TRUE(first.has_value());
  util::Expected<RunHandle> second = service.submit_run(quick);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.status().code(), util::StatusCode::kUnavailable);
  const ShedInfo info = shed_info(second.status());
  EXPECT_EQ(info.reason, ShedReason::kQueueFull);
  EXPECT_EQ(info.retry_after_ms, config.shed_retry_after_ms);

  // The still-pending handle resolves when the service is torn down
  // instead of dangling (the coordinator's resolve_pending backstop).
  service.coordinator().resolve_pending(
      util::Status::unavailable("burst abandoned"));
  EXPECT_EQ(first.value().wait().state, RunState::kFailed);
}

}  // namespace
}  // namespace pragma::service
