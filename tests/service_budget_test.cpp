// GCC 12 at -O3 reports spurious -Wrestrict on libstdc++'s own
// basic_string::assign when RunSpec string fields are set in a loop, and
// spurious -Wmaybe-uninitialized on vector members of copied RunSpecs.
#pragma GCC diagnostic ignored "-Wrestrict"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pragma/core/managed_run.hpp"
#include "pragma/io/serial.hpp"
#include "pragma/res/accountant.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/service/scheduler.hpp"
#include "pragma/util/cli.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::service {
namespace {

namespace fs = std::filesystem;

/// A small managed spec whose execution is fully modeled, so reruns are
/// bitwise reproducible.
RunSpec managed_spec(const std::string& name, int steps = 12) {
  RunSpec spec;
  spec.name = name;
  spec.kind = WorkloadKind::kManaged;
  spec.app.coarse_steps = steps;
  spec.nprocs = 4;
  spec.capacity_spread = 0.3;
  spec.seed = 7;
  spec.modeled_partition_s_per_cell = 50e-9;
  return spec;
}

/// Full-precision serialization so reports compare bitwise.
std::string fingerprint(const core::ManagedRunReport& report) {
  std::ostringstream os;
  os.precision(17);
  os << report.total_time_s << '|' << report.regrids << '|'
     << report.repartitions << '|' << report.agent_events << '|'
     << report.adm_decisions << '|' << report.event_repartitions << '|'
     << report.migrations << '|' << report.partitioner_switches << '|'
     << report.cells_advanced << '\n';
  for (const core::ManagedStepRecord& record : report.records)
    os << record.step << ';' << record.octant << ';' << record.partitioner
       << ';' << record.sim_time_s << ';' << record.step_time_s << ';'
       << record.imbalance << ';' << record.live_nodes << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// Enforcement through the scheduler
// ---------------------------------------------------------------------------

TEST(BudgetEnforcement, KillActionShedsWithResourceExhaustedAndHint) {
  res::ResourceAccountant accountant;
  util::ThreadPool pool(1);
  SchedulerConfig config{/*workers=*/1, /*queue_capacity=*/8};
  config.accountant = &accountant;
  Scheduler scheduler(config, &pool);

  RunSpec spec = managed_spec("killed");
  spec.tenant = "greedy";
  spec.budget.cpu_s = 1e-9;  // the first coarse step crosses it
  auto handle = scheduler.submit(spec);
  ASSERT_TRUE(handle.has_value());

  const RunOutcome& outcome = handle.value().wait();
  EXPECT_EQ(outcome.state, RunState::kFailed);
  EXPECT_EQ(outcome.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(outcome.status.to_string().find("cpu budget"), std::string::npos);
  EXPECT_EQ(shed_info(outcome.status).reason, ShedReason::kBudgetExhausted);
  EXPECT_GT(shed_info(outcome.status).retry_after_ms, 0);
  EXPECT_GT(outcome.usage.cpu_s, 0.0);
  // The run stopped at its first cooperative boundary, not the end.
  EXPECT_LT(outcome.managed.records.size(),
            static_cast<std::size_t>(spec.app.coarse_steps));

  scheduler.drain();
  EXPECT_EQ(scheduler.stats().budget_killed, 1u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
  EXPECT_EQ(accountant.kills(), 1u);
  EXPECT_EQ(accountant.tenant_usage("greedy").kills, 1u);
  EXPECT_EQ(accountant.open_accounts(), 0u);
}

TEST(BudgetEnforcement, ThrottleActionFinishesSlowed) {
  // Unbudgeted baseline: what the run costs at full speed.
  const core::ManagedRunReport baseline =
      core::ManagedRun(managed_spec("baseline")).run();

  res::ResourceAccountant accountant;
  util::ThreadPool pool(1);
  SchedulerConfig config{/*workers=*/1, /*queue_capacity=*/8};
  config.accountant = &accountant;
  Scheduler scheduler(config, &pool);

  RunSpec spec = managed_spec("throttled");
  spec.budget.cpu_s = 1e-9;
  spec.budget.action = res::ResourceBudget::Action::kThrottle;
  spec.budget.throttle_factor = 4.0;
  auto handle = scheduler.submit(spec);
  ASSERT_TRUE(handle.has_value());

  const RunOutcome& outcome = handle.value().wait();
  EXPECT_EQ(outcome.state, RunState::kCompleted);
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_TRUE(outcome.budget_throttled);
  // Every record is present — the violator finished, just slower.
  EXPECT_EQ(outcome.managed.records.size(), baseline.records.size());
  EXPECT_GT(outcome.managed.total_time_s, baseline.total_time_s);
  // The account was charged the post-throttle step cost (the report's
  // total additionally counts regrid/redistribution time not charged as
  // step CPU).
  EXPECT_GT(outcome.usage.cpu_s, baseline.total_time_s);
  EXPECT_LE(outcome.usage.cpu_s, outcome.managed.total_time_s);

  scheduler.drain();
  EXPECT_EQ(scheduler.stats().budget_throttled, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);
  EXPECT_EQ(accountant.throttles(), 1u);
}

TEST(BudgetEnforcement, NoBudgetWithAccountantIsByteIdenticalToLegacy) {
  std::string legacy;
  {
    util::ThreadPool pool(1);
    Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/8}, &pool);
    auto handle = scheduler.submit(managed_spec("gate"));
    ASSERT_TRUE(handle.has_value());
    legacy = fingerprint(handle.value().wait().managed);
  }

  res::ResourceAccountant accountant;
  util::ThreadPool pool(1);
  SchedulerConfig config{/*workers=*/1, /*queue_capacity=*/8};
  config.accountant = &accountant;
  Scheduler scheduler(config, &pool);
  auto handle = scheduler.submit(managed_spec("gate"));
  ASSERT_TRUE(handle.has_value());
  const RunOutcome& outcome = handle.value().wait();

  // Accounting observed the run (usage recorded) without perturbing it.
  EXPECT_EQ(outcome.state, RunState::kCompleted);
  EXPECT_GT(outcome.usage.samples, 0u);
  EXPECT_FALSE(outcome.budget_throttled);
  EXPECT_EQ(fingerprint(outcome.managed), legacy);
  EXPECT_EQ(accountant.kills(), 0u);
  EXPECT_EQ(accountant.throttles(), 0u);
}

// ---------------------------------------------------------------------------
// Cancellation racing a budget kill (TSan-clean stress)
// ---------------------------------------------------------------------------

TEST(BudgetEnforcement, CancelRacingBudgetKillYieldsOneTerminalStatus) {
  static std::atomic<int> counter{0};
  const std::string dir =
      (fs::temp_directory_path() /
       ("pragma-budget-race-" + std::to_string(::getpid()) + "-" +
        std::to_string(counter.fetch_add(1))))
          .string();
  fs::create_directories(dir);

  constexpr int kRuns = 6;
  SchedulerStats stats;
  std::uint64_t tombstones = 0;
  std::uint64_t live_pending = 0;
  {
    res::ResourceAccountant accountant;
    JournalConfig journal;
    journal.enabled = true;
    journal.dir = dir;
    util::ThreadPool pool(2);
    Runtime runtime = Runtime::Builder{}
                          .workers(2)
                          .pool(&pool)
                          .journal(journal)
                          .accountant(&accountant)
                          .build();

    std::vector<RunHandle> handles;
    for (int i = 0; i < kRuns; ++i) {
      RunSpec spec = managed_spec("race-" + std::to_string(i), /*steps=*/16);
      spec.seed = 7 + static_cast<std::uint64_t>(i);
      spec.budget.cpu_s = 1e-9;  // every run is doomed to a budget kill
      auto handle = runtime.submit(spec);
      ASSERT_TRUE(handle.has_value());
      handles.push_back(std::move(handle).value());
    }
    // Cancels race the budget kills: some land while the run is queued,
    // some mid-execution, some after the kill already latched.
    std::thread canceller([&handles] {
      for (RunHandle& handle : handles) {
        handle.cancel();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    canceller.join();
    runtime.drain();

    for (RunHandle& handle : handles) {
      const RunOutcome& outcome = handle.wait();
      // Exactly one terminal status, stable across repeated waits.
      ASSERT_TRUE(outcome.state == RunState::kFailed ||
                  outcome.state == RunState::kCancelled)
          << to_string(outcome.state);
      EXPECT_EQ(&handle.wait(), &outcome);
      EXPECT_EQ(handle.state(), outcome.state);
      if (outcome.state == RunState::kFailed) {
        EXPECT_EQ(outcome.status.code(),
                  util::StatusCode::kResourceExhausted);
      }
    }
    stats = runtime.stats();
    ASSERT_NE(runtime.journal(), nullptr);
    const JournalStats jstats = runtime.journal()->stats();
    tombstones = jstats.tombstones;
    live_pending = jstats.live_pending;
  }

  // Every admitted run reached exactly one terminal state...
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(kRuns));
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled,
            static_cast<std::size_t>(kRuns));
  EXPECT_EQ(stats.completed, 0u);  // doomed: killed or cancelled, never done
  EXPECT_EQ(stats.budget_killed, stats.failed);
  // ...and wrote its journal tombstone exactly once.
  EXPECT_EQ(tombstones, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(live_pending, 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Budget flags: the one env/CLI merge path, caret diagnostics
// ---------------------------------------------------------------------------

TEST(BudgetFlags, FlowThroughSpecFromFlags) {
  util::CliFlags flags("test");
  add_run_flags(flags, RunSpec{});
  const char* argv[] = {"prog", "--budget-cpu-s=2.5", "--budget-mem-mb=64",
                        "--budget-io-mb=8", "--budget-wall-s=30",
                        "--budget-action=throttle"};
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));

  const RunSpec spec = spec_from_flags(flags);
  EXPECT_DOUBLE_EQ(spec.budget.cpu_s, 2.5);
  EXPECT_EQ(spec.budget.mem_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(spec.budget.io_bytes, 8ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(spec.budget.wall_s, 30.0);
  EXPECT_EQ(spec.budget.action, res::ResourceBudget::Action::kThrottle);
  EXPECT_TRUE(spec.budget.any());

  // Defaults stay 0-means-unlimited: no flag, no enforcement.
  util::CliFlags defaults("test");
  add_run_flags(defaults, RunSpec{});
  const char* none[] = {"prog"};
  ASSERT_TRUE(defaults.parse(1, const_cast<char**>(none)));
  EXPECT_FALSE(spec_from_flags(defaults).budget.any());
}

TEST(BudgetFlags, NegativeCliBudgetRejectedWithCaretDiagnostic) {
  util::CliFlags flags("test");
  add_run_flags(flags, RunSpec{});
  const char* argv[] = {"prog", "--budget-cpu-s=-3"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  try {
    (void)spec_from_flags(flags);
    FAIL() << "negative budget accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("budget must be positive"), std::string::npos);
    // The caret points at the value inside the verbatim CLI token.
    EXPECT_NE(message.find("--budget-cpu-s=-3"), std::string::npos);
    EXPECT_EQ(message.back(), '^');
  }

  // An explicit zero contradicts 0-means-unlimited-by-default just as
  // loudly.
  util::CliFlags zero("test");
  add_run_flags(zero, RunSpec{});
  const char* zargv[] = {"prog", "--budget-wall-s=0"};
  ASSERT_TRUE(zero.parse(2, const_cast<char**>(zargv)));
  EXPECT_THROW((void)spec_from_flags(zero), std::invalid_argument);
}

TEST(BudgetFlags, NegativeEnvBudgetRejectedWithEnvProvenance) {
  ::setenv("PRAGMA_BUDGET_MEM_MB", "-1", 1);
  util::CliFlags flags("test");
  add_run_flags(flags, RunSpec{});
  flags.merge_env("PRAGMA");
  ::unsetenv("PRAGMA_BUDGET_MEM_MB");
  try {
    (void)spec_from_flags(flags);
    FAIL() << "negative env budget accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    // The caret diagnostic quotes the environment assignment verbatim.
    EXPECT_NE(message.find("PRAGMA_BUDGET_MEM_MB=-1"), std::string::npos);
    EXPECT_EQ(message.back(), '^');
  }
}

// ---------------------------------------------------------------------------
// Journal payload: budget roundtrip, v1 rejection
// ---------------------------------------------------------------------------

/// The 41-byte budget tail version 2 added after the version-1 fields:
/// f64 cpu_s + u64 mem + u64 io + f64 wall + u8 action + f64 factor.
constexpr std::size_t kBudgetTailBytes = 8 + 8 + 8 + 8 + 1 + 8;

TEST(BudgetJournal, RunSpecPayloadV2RoundtripsBudget) {
  RunSpec spec = managed_spec("journaled");
  spec.budget.cpu_s = 12.5;
  spec.budget.mem_bytes = 1ull << 30;
  spec.budget.io_bytes = 1ull << 20;
  spec.budget.wall_s = 60.0;
  spec.budget.action = res::ResourceBudget::Action::kThrottle;
  spec.budget.throttle_factor = 3.5;

  const std::vector<std::uint8_t> payload = encode_run_spec(spec);
  util::Expected<RunSpec> decoded = decode_run_spec(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_DOUBLE_EQ(decoded.value().budget.cpu_s, 12.5);
  EXPECT_EQ(decoded.value().budget.mem_bytes, 1ull << 30);
  EXPECT_EQ(decoded.value().budget.io_bytes, 1ull << 20);
  EXPECT_DOUBLE_EQ(decoded.value().budget.wall_s, 60.0);
  EXPECT_EQ(decoded.value().budget.action,
            res::ResourceBudget::Action::kThrottle);
  EXPECT_DOUBLE_EQ(decoded.value().budget.throttle_factor, 3.5);
  EXPECT_EQ(encode_run_spec(decoded.value()), payload);
}

TEST(BudgetJournal, V1PayloadRejectedAsUnimplemented) {
  // A version-1 (pre-budget) payload stand-in: the current encoding of a
  // default-budget spec with the version word rewritten and the budget
  // tail cut off.  Only the current payload version decodes.
  std::vector<std::uint8_t> payload = encode_run_spec(managed_spec("old"));
  io::ByteWriter version;
  version.u32(1);
  ASSERT_GE(payload.size(), 4u + kBudgetTailBytes);
  std::memcpy(payload.data(), version.take().data(), 4);
  payload.resize(payload.size() - kBudgetTailBytes);

  util::Expected<RunSpec> decoded = decode_run_spec(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kUnimplemented);
}

TEST(BudgetJournal, UnknownBudgetActionByteRejected) {
  std::vector<std::uint8_t> payload = encode_run_spec(managed_spec("bad"));
  // The action byte sits just ahead of the trailing throttle_factor f64.
  payload[payload.size() - 8 - 1] = 9;
  util::Expected<RunSpec> decoded = decode_run_spec(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_NE(decoded.status().to_string().find("budget action"),
            std::string::npos);
}

}  // namespace
}  // namespace pragma::service
