// Integration tests for the elastic coordinator/worker control plane:
// lease dispatch over the reliable channel, heartbeat-driven liveness
// (suspect -> un-suspect -> confirm, no oracle), work stealing, failover
// from durable checkpoints with byte-identical final artifacts, graceful
// degradation under partition, and agreement with the single-process
// Scheduler path.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/core/managed_run.hpp"
#include "pragma/core/run_snapshot.hpp"
#include "pragma/res/accountant.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/service/worker.hpp"
#include "pragma/util/cli.hpp"

namespace pragma::service {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("pragma_dist_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

/// A small managed run with durable persistence, patterned on the PR-3
/// persistence tests (checkpoint on almost every step so a kill always
/// has generations to recover from).
RunSpec managed_spec(const std::string& dir, int steps = 18,
                     std::uint64_t seed = 40) {
  RunSpec spec;
  spec.name = "dist";
  spec.kind = WorkloadKind::kManaged;
  spec.app.coarse_steps = steps;
  spec.nprocs = 8;
  spec.seed = seed;
  spec.persist.enabled = true;
  spec.persist.dir = dir;
  spec.checkpoint_interval_s = 1e-6;
  spec.persist.keep_last_n = 4;
  return spec;
}

/// Fast-cadence control plane so churn scenarios settle in a few
/// simulated (and real) seconds.
DistributedConfig fast_config() {
  DistributedConfig config;
  config.heartbeat.period_s = 0.5;
  config.heartbeat.suspect_missed = 3;  // suspected after 1.5 s silence
  config.heartbeat.confirm_missed = 6;  // confirmed dead after 3 s
  config.dispatch_period_s = 0.25;
  config.slice_steps = 6;
  config.slice_sim_s = 1.0;
  return config;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The bit-identity contract: every persisted report field, minus the
/// ones describing *this process's* lifecycle (resumed and the checkpoint
/// counters).
void expect_reports_bit_identical(const core::ManagedRunReport& a,
                                  const core::ManagedRunReport& b) {
  EXPECT_TRUE(core::encode_report(a) == core::encode_report(b))
      << "total_time_s " << a.total_time_s << " vs " << b.total_time_s;
}

/// Uninterrupted single-process reference for a spec (distinct dir so the
/// distributed run's generations are untouched).
core::ManagedRunReport reference_report(RunSpec spec,
                                        const std::string& dir) {
  spec.persist.dir = dir;
  return core::ManagedRun(spec).run();
}

TEST(Distributed, BurstCompletesAndMatchesStandalone) {
  const std::string root = test_dir("burst");
  DistributedService service(fast_config(), /*seed=*/40);
  service.add_worker("w0");
  service.add_worker("w1");
  std::vector<std::uint64_t> ids;
  std::vector<RunSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(managed_spec(root + "/run-" + std::to_string(i), 14,
                                 40 + 1000ull * static_cast<unsigned>(i)));
    const auto handle = service.submit_run(specs.back());
    ASSERT_TRUE(handle) << handle.status().to_string();
    ids.push_back(handle.value().id());
  }
  ASSERT_TRUE(service.run_until_done(300.0).is_ok());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DistRun* run = service.coordinator().find(ids[i]);
    ASSERT_NE(run, nullptr);
    ASSERT_EQ(run->state, DistRunState::kCompleted);
    expect_reports_bit_identical(
        run->outcome.managed,
        reference_report(specs[i], root + "/ref-" + std::to_string(i)));
  }
  EXPECT_EQ(service.coordinator().stats().completed, 3u);
  EXPECT_EQ(service.coordinator().stats().failed, 0u);
  fs::remove_all(root);
}

TEST(Distributed, KillMidRunFailsOverByteIdentical) {
  const std::string root = test_dir("failover");
  DistributedService service(fast_config(), /*seed=*/41);
  service.add_worker("w0");
  service.add_worker("w1");
  const RunSpec spec = managed_spec(root + "/run", /*steps=*/30);
  const auto handle = service.submit_run(spec);
  ASSERT_TRUE(handle) << handle.status().to_string();
  const std::uint64_t id = handle.value().id();
  // Both workers idle: the run lands on one of them and executes in
  // ~1 s slices.  Kill the assignee mid-run; the confirm window is 3 s,
  // so failover lands while the run is genuinely unfinished.
  service.simulator().schedule_at(1.6, [&] {
    const DistRun* run = service.coordinator().find(id);
    ASSERT_NE(run, nullptr);
    ASSERT_FALSE(run->assignee.empty());
    // Map port back to worker name ("dist.worker.<name>").
    const std::string name =
        run->assignee.substr(dist::kWorkerPortPrefix.size());
    service.schedule_kill(1.7, name);
  });
  ASSERT_TRUE(service.run_until_done(600.0).is_ok());

  const DistRun* run = service.coordinator().find(id);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->state, DistRunState::kCompleted);
  EXPECT_EQ(run->failovers, 1);
  EXPECT_TRUE(run->outcome.managed.resumed)
      << "failover must resume from the durable store, not restart";
  EXPECT_GE(service.coordinator().stats().failovers, 1u);
  expect_reports_bit_identical(run->outcome.managed,
                               reference_report(spec, root + "/ref"));

  const auto latencies = service.recovery_latencies();
  ASSERT_FALSE(latencies.empty());
  // Detection dominates: kill -> confirm is ~3 s at this cadence, plus a
  // dispatch sweep.  Sanity-bound it rather than pin it.
  EXPECT_GT(latencies.front(), 1.0);
  EXPECT_LT(latencies.front(), 30.0);
  fs::remove_all(root);
}

// Satellite: HeartbeatDetector flapping.  The assignee goes silent long
// enough to be suspected, resumes (un-suspect, nothing stolen or lost),
// then dies for real — exactly one failover, no duplicate execution.
TEST(Distributed, FlappingWorkerSuspectsUnsuspectsThenDies) {
  const std::string root = test_dir("flap");
  DistributedService service(fast_config(), /*seed=*/42);
  Worker& w0 = service.add_worker("w0");
  service.add_worker("w1");
  const RunSpec spec = managed_spec(root + "/run", /*steps=*/36);
  const auto handle = service.submit_run(spec);
  ASSERT_TRUE(handle) << handle.status().to_string();
  const std::uint64_t id = handle.value().id();
  // Let the dispatch sweep land the run, then freeze whichever worker
  // got it for 2 s: past the 1.5 s suspect window, short of the 3 s
  // confirm window.
  agents::PortId assignee;
  service.simulator().schedule_at(0.6, [&] {
    const DistRun* run = service.coordinator().find(id);
    ASSERT_NE(run, nullptr);
    assignee = run->assignee;
    ASSERT_FALSE(assignee.empty());
    const std::string name =
        assignee.substr(dist::kWorkerPortPrefix.size());
    service.schedule_stall(0.7, name, 2.0);
    service.schedule_kill(6.0, name);  // later: dies for real
  });
  ASSERT_TRUE(service.run_until_done(600.0).is_ok());

  const auto& detector = service.coordinator().detector();
  EXPECT_GE(detector.suspects_raised(), 1u);
  EXPECT_GE(detector.unsuspects(), 1u)
      << "resumed heartbeats must clear the suspicion";

  const DistRun* run = service.coordinator().find(id);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->state, DistRunState::kCompleted);
  EXPECT_EQ(run->failovers, 1) << "exactly one failover, from the real death";
  EXPECT_EQ(service.coordinator().stats().stale_results_ignored, 0u);
  EXPECT_EQ(service.coordinator().stats().completed, 1u);
  // No duplicate execution: exactly one completion across the pool.
  std::size_t completions = w0.stats().completions;
  if (const Worker* w1 = service.worker("w1"))
    completions += w1->stats().completions;
  EXPECT_EQ(completions, 1u);
  expect_reports_bit_identical(run->outcome.managed,
                               reference_report(spec, root + "/ref"));
  fs::remove_all(root);
}

// Work stealing: a late joiner relieves the backlog of the only worker.
TEST(Distributed, JoinMidBurstStealsBacklog) {
  const std::string root = test_dir("steal");
  DistributedConfig config = fast_config();
  config.worker_queue_depth = 2;
  DistributedService service(config, /*seed=*/43);
  service.add_worker("w0");
  const auto a = service.submit_run(managed_spec(root + "/a", 18, 40));
  const auto b = service.submit_run(managed_spec(root + "/b", 18, 1040));
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  service.schedule_join(1.0, "w1");
  ASSERT_TRUE(service.run_until_done(600.0).is_ok());
  EXPECT_EQ(service.coordinator().stats().completed, 2u);
  EXPECT_GE(service.coordinator().stats().steals, 1u)
      << "the idle joiner should have stolen w0's queued lease";
  const Worker* w1 = service.worker("w1");
  ASSERT_NE(w1, nullptr);
  EXPECT_GE(w1->stats().completions, 1u);
  EXPECT_EQ(service.coordinator().stats().stale_results_ignored, 0u);
  fs::remove_all(root);
}

// Partition: admitted work is queued, not lost; submissions beyond the
// admission bound are shed with Status::unavailable; the healed worker
// is fenced, re-registers, and finishes everything.
TEST(Distributed, PartitionDegradesGracefully) {
  DistributedConfig config = fast_config();
  config.queue_capacity = 2;
  DistributedService service(config, /*seed=*/44);
  service.add_worker("w0");
  service.schedule_partition(0.1, 8.0, {"w0"});

  int executions = 0;
  RunSpec quick;
  quick.kind = WorkloadKind::kCustom;
  quick.custom = [&executions](RunContext&) {
    ++executions;
    return util::Status::ok();
  };
  // Submit once the worker is already cut off: the leases cannot reach
  // it, the worker is eventually confirmed dead, and the runs must sit
  // in the queue (not lost, not failed) until the heal.
  util::Expected<RunHandle> a = util::Status::internal("unset");
  util::Expected<RunHandle> b = util::Status::internal("unset");
  util::Expected<RunHandle> c = util::Status::internal("unset");
  service.simulator().schedule_at(0.5, [&] {
    a = service.submit_run(quick);
    b = service.submit_run(quick);
  });
  // Queue full (capacity 2, worker unreachable): shed, not queued.
  service.simulator().schedule_at(5.0,
                                  [&] { c = service.submit_run(quick); });
  service.simulator().run(12.0);

  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE(service.coordinator().all_done());
  ASSERT_FALSE(c);
  EXPECT_EQ(c.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(service.coordinator().stats().shed, 1u);
  EXPECT_EQ(service.coordinator().stats().completed, 2u);
  EXPECT_EQ(executions, 2);
  EXPECT_GE(service.coordinator().stats().confirms, 1u)
      << "the partitioned worker should have been confirmed dead";
  EXPECT_GE(service.coordinator().stats().rejoins, 1u)
      << "and fenced back in after the heal";
}

// The two backends compute the same bytes: the in-process scheduler
// (through Runtime) and the sliced, leased control plane (through
// DistributedService).
TEST(Distributed, SchedulerAndDistributedPlaneAgreeByteIdentical) {
  const std::string root = test_dir("agree");
  auto specs_for = [&](const std::string& tag) {
    std::vector<RunSpec> specs;
    specs.push_back(managed_spec(root + "/" + tag + "-0", 14, 40));
    specs.push_back(managed_spec(root + "/" + tag + "-1", 14, 1040));
    return specs;
  };

  Runtime runtime = Runtime::Builder{}.build();
  std::vector<RunOutcome> scheduler_path;
  for (RunSpec& spec : specs_for("sched"))
    scheduler_path.push_back(runtime.run(std::move(spec)));

  DistributedService service(fast_config(), /*seed=*/40);
  service.add_worker("w0");
  service.add_worker("w1");
  std::vector<RunHandle> handles;
  for (RunSpec& spec : specs_for("dist")) {
    util::Expected<RunHandle> handle = service.submit_run(std::move(spec));
    ASSERT_TRUE(handle) << handle.status().to_string();
    handles.push_back(std::move(handle).value());
  }
  ASSERT_TRUE(service.run_until_done(300.0).is_ok());

  ASSERT_EQ(scheduler_path.size(), handles.size());
  for (std::size_t i = 0; i < scheduler_path.size(); ++i) {
    ASSERT_EQ(scheduler_path[i].state, RunState::kCompleted)
        << scheduler_path[i].status.to_string();
    const RunOutcome& distributed = handles[i].wait();
    ASSERT_EQ(distributed.state, RunState::kCompleted)
        << distributed.status.to_string();
    expect_reports_bit_identical(scheduler_path[i].managed,
                                 distributed.managed);
  }
  fs::remove_all(root);
}

// Satellite: the reliable-channel knobs ride the one env/CLI merge path.
TEST(Distributed, ReliableFlagsRoundTrip) {
  util::CliFlags flags;
  add_run_flags(flags, RunSpec{});
  const char* argv[] = {"prog", "--reliable-timeout=0.25",
                        "--reliable-backoff=3.5", "--reliable-attempts=11"};
  ASSERT_TRUE(flags.parse(4, argv));
  const RunSpec spec = spec_from_flags(flags);
  EXPECT_EQ(spec.ft.reliable.timeout_s, 0.25);
  EXPECT_EQ(spec.ft.reliable.backoff_factor, 3.5);
  EXPECT_EQ(spec.ft.reliable.max_attempts, 11);
  // Defaults pass through untouched when the flags are absent.
  util::CliFlags defaults;
  add_run_flags(defaults, RunSpec{});
  const RunSpec untouched = spec_from_flags(defaults);
  EXPECT_EQ(untouched.ft.reliable.timeout_s,
            agents::ReliableConfig{}.timeout_s);
  EXPECT_EQ(untouched.ft.reliable.max_attempts,
            agents::ReliableConfig{}.max_attempts);
}

// Same-seed deployments are bitwise identical even with churn, and a
// churning burst per thread keeps TSan quiet (each service is fully
// thread-local; only the obs registry is shared).
TEST(Distributed, ConcurrentChurningServicesAreDeterministic) {
  const std::string root = test_dir("tsan");
  constexpr int kThreads = 4;
  std::vector<core::ManagedRunReport> reports(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &root, &reports] {
      DistributedService service(fast_config(), /*seed=*/50);
      service.add_worker("w0");
      service.add_worker("w1");
      // Same seed + same churn schedule in every thread: kill w0 mid-run,
      // join a replacement.
      service.schedule_kill(1.7, "w0");
      service.schedule_join(2.0, "w2");
      const std::string dir =
          root + "/t" + std::to_string(t) + "/run";
      const auto handle = service.submit_run(managed_spec(dir, /*steps=*/24));
      ASSERT_TRUE(handle);
      ASSERT_TRUE(service.run_until_done(600.0).is_ok());
      const DistRun* run = service.coordinator().find(handle.value().id());
      ASSERT_NE(run, nullptr);
      ASSERT_EQ(run->state, DistRunState::kCompleted);
      reports[t] = run->outcome.managed;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t)
    expect_reports_bit_identical(reports[0], reports[t]);
  fs::remove_all(root);
}

/// The PR-9 off-switch gate: a populated-but-disabled AutoscaleConfig and
/// a budget-less accountant must leave the distributed burst byte-
/// identical to the legacy service — same reports bit for bit, same
/// simulated completion instants, no scale events.
TEST(Distributed, DisabledAutoscaleAndBudgetlessAccountantAreByteIdentical) {
  const std::string root = test_dir("autoscale_gate");
  auto run_plane = [&](const DistributedConfig& config, const char* tag,
                       std::vector<core::ManagedRunReport>* reports,
                       std::vector<double>* completed_at) {
    DistributedService service(config, /*seed=*/40);
    service.add_worker("w0");
    service.add_worker("w1");
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
      RunSpec spec = managed_spec(
          root + "/" + tag + "-" + std::to_string(i), 14,
          40 + 1000ull * static_cast<unsigned>(i));
      const auto handle = service.submit_run(spec);
      ASSERT_TRUE(handle) << handle.status().to_string();
      ids.push_back(handle.value().id());
    }
    ASSERT_TRUE(service.run_until_done(300.0).is_ok());
    for (const std::uint64_t id : ids) {
      const DistRun* run = service.coordinator().find(id);
      ASSERT_NE(run, nullptr);
      ASSERT_EQ(run->state, DistRunState::kCompleted);
      reports->push_back(run->outcome.managed);
      completed_at->push_back(run->completed_s);
    }
    EXPECT_EQ(service.scale_ups(), 0u);
    EXPECT_EQ(service.scale_downs(), 0u);
    EXPECT_EQ(service.autoscaler(), nullptr);
  };

  std::vector<core::ManagedRunReport> legacy_reports;
  std::vector<double> legacy_completed;
  run_plane(fast_config(), "legacy", &legacy_reports, &legacy_completed);

  // Every autoscale knob populated, master switch off; accountant
  // attached, no spec carries a budget.
  res::ResourceAccountant accountant;
  DistributedConfig gated = fast_config();
  gated.autoscale.predictive = true;
  gated.autoscale.min_workers = 1;
  gated.autoscale.max_workers = 12;
  gated.autoscale.interval_s = 0.5;
  gated.autoscale.spinup_s = 4.0;
  ASSERT_FALSE(gated.autoscale.enabled);
  gated.accountant = &accountant;

  std::vector<core::ManagedRunReport> gated_reports;
  std::vector<double> gated_completed;
  run_plane(gated, "gated", &gated_reports, &gated_completed);

  ASSERT_EQ(gated_reports.size(), legacy_reports.size());
  for (std::size_t i = 0; i < legacy_reports.size(); ++i) {
    expect_reports_bit_identical(legacy_reports[i], gated_reports[i]);
    EXPECT_TRUE(same_bits(legacy_completed[i], gated_completed[i]))
        << legacy_completed[i] << " vs " << gated_completed[i];
  }
  // The accountant observed the runs without perturbing them.
  EXPECT_EQ(accountant.kills(), 0u);
  EXPECT_EQ(accountant.throttles(), 0u);
  EXPECT_GT(accountant.total().cpu_s, 0.0);
  fs::remove_all(root);
}

// A sliced run charges its account once per coarse step, as a whole run
// does.  This run writes no generation before step 40 at the default 25-s
// cadence, so a slice that resumed from disk would re-run (and re-charge)
// every step from step 0.
TEST(Distributed, SlicedRunChargesEachStepOnce) {
  const std::string root = test_dir("charges");
  const auto spec_for = [&root](const std::string& tag, double cpu_budget_s) {
    RunSpec spec;
    spec.name = "charged-" + tag;
    spec.kind = WorkloadKind::kManaged;
    spec.app.coarse_steps = 40;
    spec.nprocs = 8;
    spec.seed = 40;
    spec.ft.enabled = true;
    spec.ft.channel.drop_probability = 0.05;
    spec.modeled_partition_s_per_cell = core::kModeledPartitionSPerCell;
    spec.persist.enabled = true;
    spec.persist.dir = root + "/" + tag;
    spec.budget.cpu_s = cpu_budget_s;
    return spec;
  };
  const auto local_run = [](const RunSpec& spec) {
    res::ResourceAccountant local;
    Runtime runtime = Runtime::Builder{}.workers(1).accountant(&local).build();
    return runtime.run(spec);
  };
  const auto remote_run = [](const RunSpec& spec) {
    res::ResourceAccountant remote;
    DistributedConfig config = fast_config();
    config.accountant = &remote;
    DistributedService service(config, /*seed=*/40);
    service.add_worker("w0");
    util::Expected<RunHandle> handle = service.submit_run(spec);
    EXPECT_TRUE(handle) << handle.status().to_string();
    EXPECT_TRUE(service.run_until_done(600.0).is_ok());
    return handle.value().wait();
  };

  const RunOutcome local = local_run(spec_for("local", 0.0));
  const RunOutcome remote = remote_run(spec_for("remote", 0.0));
  ASSERT_EQ(local.state, RunState::kCompleted) << local.status.to_string();
  ASSERT_EQ(remote.state, RunState::kCompleted) << remote.status.to_string();
  EXPECT_TRUE(same_bits(local.usage.cpu_s, remote.usage.cpu_s))
      << local.usage.cpu_s << " vs " << remote.usage.cpu_s;
  EXPECT_EQ(local.usage.samples, remote.usage.samples);
  expect_reports_bit_identical(local.managed, remote.managed);

  // A budget the run fits in passes on both backends.
  for (const RunOutcome& budgeted :
       {local_run(spec_for("local-budget", 40.0)),
        remote_run(spec_for("remote-budget", 40.0))})
    EXPECT_EQ(budgeted.state, RunState::kCompleted)
        << budgeted.status.to_string();
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// One executor for both backends
// ---------------------------------------------------------------------------

/// Every field of a replay summary at full precision, records included.
std::string summary_bits(const core::RunSummary& run) {
  std::ostringstream os;
  os.precision(17);
  os << run.label << '|' << run.runtime_s << '|' << run.compute_s << '|'
     << run.comm_s << '|' << run.migration_s << '|' << run.partition_s << '|'
     << run.max_imbalance << '|' << run.mean_imbalance << '|'
     << run.amr_efficiency << '|' << run.switches << '\n';
  for (const core::SnapshotRecord& record : run.records)
    os << record.step << ';' << record.partitioner << ';' << record.octant
       << ';' << record.step_time_s << ';' << record.imbalance << ';'
       << record.comm_volume << ';' << record.migration_s << ';'
       << record.partition_s << ';' << record.amr_efficiency << '\n';
  return os.str();
}

TEST(SharedExecutor, TraceReplayIsBitwiseEqualOnBothBackends) {
  amr::Rm3dConfig app;
  app.coarse_steps = 60;
  RunSpec spec;
  spec.name = "replay";
  spec.kind = WorkloadKind::kTraceReplay;
  spec.trace =
      std::make_shared<const amr::AdaptationTrace>(amr::Rm3dEmulator(app).run());
  spec.strategy = "adaptive";
  spec.modeled_partition_s_per_cell = 50e-9;

  auto runtime = Runtime::Builder{}.workers(1).build();
  const RunOutcome local = runtime.run(spec);
  ASSERT_EQ(local.state, RunState::kCompleted) << local.status.to_string();

  DistributedService service(fast_config(), /*seed=*/40);
  service.add_worker("w0");
  util::Expected<RunHandle> handle = service.submit_run(spec);
  ASSERT_TRUE(handle) << handle.status().to_string();
  ASSERT_TRUE(service.run_until_done(300.0).is_ok());
  const RunOutcome& remote = handle.value().wait();
  ASSERT_EQ(remote.state, RunState::kCompleted) << remote.status.to_string();

  ASSERT_FALSE(local.replay.records.empty());
  EXPECT_EQ(summary_bits(local.replay), summary_bits(remote.replay));
}

TEST(SharedExecutor, BudgetKillShedsAlikeOnBothBackends) {
  RunSpec spec;
  spec.name = "greedy";
  spec.kind = WorkloadKind::kManaged;
  spec.app.coarse_steps = 12;
  spec.nprocs = 4;
  spec.seed = 7;
  spec.modeled_partition_s_per_cell = 50e-9;
  spec.budget.cpu_s = 1e-9;  // the first coarse step crosses it

  res::ResourceAccountant local_accountant;
  auto runtime =
      Runtime::Builder{}.workers(1).accountant(&local_accountant).build();
  const RunOutcome local = runtime.run(spec);

  const std::string root = test_dir("budget");
  res::ResourceAccountant remote_accountant;
  DistributedConfig config = fast_config();
  config.checkpoint_root = root;  // managed runs get persistence forced on
  config.accountant = &remote_accountant;
  DistributedService service(config, /*seed=*/40);
  service.add_worker("w0");
  util::Expected<RunHandle> handle = service.submit_run(spec);
  ASSERT_TRUE(handle) << handle.status().to_string();
  ASSERT_TRUE(service.run_until_done(300.0).is_ok());
  const RunOutcome& remote = handle.value().wait();

  for (const RunOutcome* outcome : {&local, &remote}) {
    EXPECT_EQ(outcome->state, RunState::kFailed);
    EXPECT_EQ(outcome->status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(shed_info(outcome->status).reason,
              ShedReason::kBudgetExhausted);
    EXPECT_GT(shed_info(outcome->status).retry_after_ms, 0);
  }
  EXPECT_EQ(shed_info(local.status).retry_after_ms,
            shed_info(remote.status).retry_after_ms);
  EXPECT_EQ(local_accountant.kills(), 1u);
  EXPECT_EQ(remote_accountant.kills(), 1u);
  EXPECT_EQ(remote_accountant.open_accounts(), 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace pragma::service
