// GCC 12 at -O3 reports spurious -Wrestrict on libstdc++'s own
// basic_string::assign when RunSpec string fields are set in a loop.
#pragma GCC diagnostic ignored "-Wrestrict"

#include "pragma/service/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pragma/core/managed_run.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/util/thread_pool.hpp"

namespace pragma::service {
namespace {

using namespace std::chrono_literals;

/// A custom workload that blocks until `release` is signalled, recording
/// its name so dispatch order can be asserted.
RunSpec blocking_spec(const std::string& name, std::shared_future<void> release,
                      std::vector<std::string>* order = nullptr,
                      std::mutex* order_mu = nullptr) {
  RunSpec spec;
  spec.name = name;
  spec.kind = WorkloadKind::kCustom;
  spec.custom = [name, release, order, order_mu](RunContext&) {
    if (order != nullptr) {
      std::lock_guard<std::mutex> lock(*order_mu);
      order->push_back(name);
    }
    release.wait();
    return util::Status::ok();
  };
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

RunSpec deterministic_managed_spec() {
  RunSpec spec;
  spec.kind = WorkloadKind::kManaged;
  spec.app.coarse_steps = 40;
  spec.nprocs = 8;
  spec.capacity_spread = 0.3;
  spec.with_background_load = true;
  spec.system_sensitive = true;
  spec.modeled_partition_s_per_cell = 50e-9;
  return spec;
}

TEST(SchedulerAdmission, OverflowShedsWithUnavailable) {
  util::ThreadPool pool(1);
  Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/2}, &pool);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  // Occupies the single worker slot; the next two fill the queue.
  auto blocker = scheduler.submit(blocking_spec("blocker", release));
  ASSERT_TRUE(blocker.has_value());
  auto queued_a = scheduler.submit(blocking_spec("a", release));
  auto queued_b = scheduler.submit(blocking_spec("b", release));
  ASSERT_TRUE(queued_a.has_value());
  ASSERT_TRUE(queued_b.has_value());
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  util::Expected<RunHandle> shed = scheduler.submit(blocking_spec("c", release));
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(shed.status().to_string().find("admission queue full"),
            std::string::npos);
  // The shed carries a machine-readable retry-after hint.
  EXPECT_GE(shed_info(shed.status()).retry_after_ms, 0);
  EXPECT_EQ(shed_info(util::Status::ok()).retry_after_ms, -1);
  EXPECT_EQ(shed_info(util::Status::unavailable("no hint")).retry_after_ms,
            -1);

  gate.set_value();
  scheduler.drain();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.shed_rate_limited, 0u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(blocker.value().wait().state, RunState::kCompleted);
}

TEST(SchedulerAdmission, RateLimitShedsWithRetryAfterHint) {
  util::ThreadPool pool(1);
  SchedulerConfig config{/*workers=*/1, /*queue_capacity=*/64};
  // Two-token bucket refilling at 1 token/s: the first two submissions
  // pass, the third sheds with a hint close to one refill period.
  config.rate_limit = {/*rate_per_s=*/1.0, /*burst=*/2.0};
  Scheduler scheduler(config, &pool);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  auto first = scheduler.submit(blocking_spec("a", release));
  auto second = scheduler.submit(blocking_spec("b", release));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());

  util::Expected<RunHandle> shed = scheduler.submit(blocking_spec("c", release));
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(shed.status().to_string().find("rate limit"), std::string::npos);
  const long long hint = shed_info(shed.status()).retry_after_ms;
  EXPECT_GT(hint, 0);
  EXPECT_LE(hint, 2000);

  gate.set_value();
  scheduler.drain();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.shed_rate_limited, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(SchedulerAdmission, RetryAfterHintSurvivesRuntimeSubmit) {
  auto runtime = Runtime::Builder{}
                     .workers(1)
                     .queue_capacity(1)
                     .rate_limit({/*rate_per_s=*/0.5, /*burst=*/1.0})
                     .build();

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  ASSERT_TRUE(runtime.submit(blocking_spec("only", release)).has_value());

  // The rate limiter sheds before the queue does; either way the status
  // that reaches the Runtime caller carries the machine-readable hint.
  util::Expected<RunHandle> shed =
      runtime.submit(blocking_spec("over", release));
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_GE(shed_info(shed.status()).retry_after_ms, 0);

  gate.set_value();
  runtime.drain();
}

TEST(SchedulerFairShare, AlternatesTenantsDespitePrioritySkew) {
  util::ThreadPool pool(1);
  Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/16}, &pool);

  std::vector<std::string> order;
  std::mutex order_mu;
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();

  RunSpec blocker = blocking_spec("blocker", release, &order, &order_mu);
  blocker.tenant = "warmup";
  ASSERT_TRUE(scheduler.submit(blocker).has_value());

  // Tenant "a" floods with high-priority runs; tenant "b" submits one
  // low-priority run afterwards.  Fair share serves b before a's backlog.
  std::vector<RunHandle> handles;
  for (const char* name : {"a1", "a2", "a3"}) {
    RunSpec spec = blocking_spec(name, release, &order, &order_mu);
    spec.tenant = "a";
    spec.priority = 10;
    handles.push_back(scheduler.submit(std::move(spec)).value());
  }
  RunSpec b_spec = blocking_spec("b1", release, &order, &order_mu);
  b_spec.tenant = "b";
  b_spec.priority = 0;
  handles.push_back(scheduler.submit(std::move(b_spec)).value());

  gate.set_value();
  scheduler.drain();
  const std::vector<std::string> expected{"blocker", "a1", "b1", "a2", "a3"};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerFairShare, PriorityOrdersRunsWithinOneTenant) {
  util::ThreadPool pool(1);
  Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/16}, &pool);

  std::vector<std::string> order;
  std::mutex order_mu;
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  ASSERT_TRUE(
      scheduler.submit(blocking_spec("blocker", release, &order, &order_mu))
          .has_value());

  RunSpec low = blocking_spec("low", release, &order, &order_mu);
  low.priority = 1;
  RunSpec high = blocking_spec("high", release, &order, &order_mu);
  high.priority = 9;
  ASSERT_TRUE(scheduler.submit(std::move(low)).has_value());
  ASSERT_TRUE(scheduler.submit(std::move(high)).has_value());

  gate.set_value();
  scheduler.drain();
  const std::vector<std::string> expected{"blocker", "high", "low"};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerCancel, QueuedRunIsWithdrawnImmediately) {
  util::ThreadPool pool(1);
  Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/8}, &pool);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  auto blocker = scheduler.submit(blocking_spec("blocker", release));
  ASSERT_TRUE(blocker.has_value());

  std::atomic<bool> ran{false};
  RunSpec spec;
  spec.name = "victim";
  spec.kind = WorkloadKind::kCustom;
  spec.custom = [&ran](RunContext&) {
    ran.store(true);
    return util::Status::ok();
  };
  RunHandle victim = scheduler.submit(std::move(spec)).value();
  EXPECT_EQ(victim.state(), RunState::kQueued);
  EXPECT_TRUE(victim.cancel());
  EXPECT_EQ(victim.state(), RunState::kCancelled);
  EXPECT_FALSE(victim.cancel()) << "second cancel reports already-terminal";

  gate.set_value();
  scheduler.drain();
  EXPECT_FALSE(ran.load()) << "cancelled-in-queue run must never execute";
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(SchedulerCancel, RunningCustomRunStopsAtPollBoundary) {
  util::ThreadPool pool(1);
  Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/8}, &pool);

  std::promise<void> started;
  RunSpec spec;
  spec.name = "poller";
  spec.kind = WorkloadKind::kCustom;
  spec.custom = [&started](RunContext& context) {
    started.set_value();
    while (!context.cancel_requested()) std::this_thread::sleep_for(1ms);
    return util::Status::ok();
  };
  RunHandle handle = scheduler.submit(std::move(spec)).value();
  started.get_future().wait();
  EXPECT_TRUE(handle.cancel());
  const RunOutcome& outcome = handle.wait();
  EXPECT_EQ(outcome.state, RunState::kCancelled);
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(SchedulerCancel, RunningManagedRunStopsAtStepBoundary) {
  util::ThreadPool pool(1);
  Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/8}, &pool);

  RunSpec spec = deterministic_managed_spec();
  spec.name = "long-managed";
  spec.app.coarse_steps = 100000;  // far beyond what the test waits for
  RunHandle handle = scheduler.submit(std::move(spec)).value();
  while (handle.state() == RunState::kQueued) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(handle.cancel());
  const RunOutcome& outcome = handle.wait();
  EXPECT_EQ(outcome.state, RunState::kCancelled);
  // The run stopped mid-flight: far fewer regrid records than a full run.
  EXPECT_LT(outcome.managed.records.size(), 100000u / 4);
}

TEST(SchedulerErrors, FailingRunReportsStatusAndState) {
  util::ThreadPool pool(1);
  Scheduler scheduler({}, &pool);

  RunSpec throwing;
  throwing.name = "thrower";
  throwing.kind = WorkloadKind::kCustom;
  throwing.custom = [](RunContext&) -> util::Status {
    throw std::runtime_error("boom");
  };
  RunHandle thrower = scheduler.submit(std::move(throwing)).value();
  const RunOutcome& thrown = thrower.wait();
  EXPECT_EQ(thrown.state, RunState::kFailed);
  EXPECT_NE(thrown.status.to_string().find("boom"), std::string::npos);

  RunSpec traceless;
  traceless.name = "no-trace";
  traceless.kind = WorkloadKind::kTraceReplay;
  RunHandle no_trace = scheduler.submit(std::move(traceless)).value();
  const RunOutcome& invalid = no_trace.wait();
  EXPECT_EQ(invalid.state, RunState::kFailed);
  EXPECT_EQ(scheduler.stats().failed, 2u);
}

TEST(SchedulerDeterminism, ConcurrentBatchMatchesSerialBitwise) {
  const RunSpec base = deterministic_managed_spec();
  constexpr std::size_t kRuns = 8;

  // Serial reference: each derived spec executed alone, in order.
  std::vector<std::string> serial;
  for (std::size_t i = 0; i < kRuns; ++i)
    serial.push_back(
        fingerprint(core::ManagedRun(base.derived(i)).run()));

  // The same derived specs, four at a time through the scheduler.
  util::ThreadPool pool(4);
  Scheduler scheduler({/*workers=*/4, /*queue_capacity=*/kRuns}, &pool);
  std::vector<RunHandle> handles;
  for (std::size_t i = 0; i < kRuns; ++i)
    handles.push_back(scheduler.submit(base.derived(i)).value());
  for (std::size_t i = 0; i < kRuns; ++i) {
    const RunOutcome& outcome = handles[i].wait();
    ASSERT_EQ(outcome.state, RunState::kCompleted);
    EXPECT_EQ(fingerprint(outcome.managed), serial[i])
        << "run " << i << " diverged under concurrency";
  }
  EXPECT_GE(scheduler.stats().peak_running, 2u);
}

TEST(SchedulerStress, ManyRunsWithInterleavedCancels) {
  util::ThreadPool pool(4);
  Scheduler scheduler({/*workers=*/4, /*queue_capacity=*/256}, &pool);

  std::atomic<int> executed{0};
  std::vector<RunHandle> handles;
  for (int i = 0; i < 64; ++i) {
    RunSpec spec;
    spec.name = "stress-" + std::to_string(i);
    spec.tenant = i % 3 == 0 ? "a" : "b";
    spec.priority = i % 5;
    spec.kind = WorkloadKind::kCustom;
    spec.custom = [&executed](RunContext& context) {
      for (int spin = 0; spin < 10 && !context.cancel_requested(); ++spin)
        std::this_thread::yield();
      executed.fetch_add(1);
      return util::Status::ok();
    };
    auto handle = scheduler.submit(std::move(spec));
    ASSERT_TRUE(handle.has_value());
    if (i % 7 == 0) handle.value().cancel();
    handles.push_back(std::move(handle.value()));
  }
  scheduler.drain();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, 64u);
  EXPECT_EQ(stats.failed, 0u);
  for (RunHandle& handle : handles) EXPECT_TRUE(handle.done());
}

TEST(SchedulerShutdown, DestructorCancelsQueuedRuns) {
  util::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  RunHandle queued;
  {
    Scheduler scheduler({/*workers=*/1, /*queue_capacity=*/8}, &pool);
    ASSERT_TRUE(scheduler.submit(blocking_spec("blocker", release)).has_value());
    queued = scheduler.submit(blocking_spec("stuck", release)).value();
    gate.set_value();  // let the blocker finish so the dtor can drain
  }
  EXPECT_TRUE(queued.done());
}

}  // namespace
}  // namespace pragma::service
