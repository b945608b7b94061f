// GCC 12 at -O3 reports spurious -Wmaybe-uninitialized on the vector
// members of RunSpec temporaries materialized for add_run_flags /
// spec_from_flags; the objects are value-initialized.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "pragma/service/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/policy/builtin.hpp"
#include "pragma/service/workbench.hpp"
#include "pragma/util/cli.hpp"

namespace pragma::service {
namespace {

std::shared_ptr<const amr::AdaptationTrace> small_trace(int steps = 80) {
  amr::Rm3dConfig app;
  app.coarse_steps = steps;
  return std::make_shared<const amr::AdaptationTrace>(
      amr::Rm3dEmulator(app).run());
}

std::string fingerprint(const core::RunSummary& run) {
  std::ostringstream os;
  os.precision(17);
  os << run.label << '|' << run.runtime_s << '|' << run.mean_imbalance << '|'
     << run.migration_s << '|' << run.partition_s << '|' << run.compute_s
     << '|' << run.comm_s << '|' << run.switches;
  return os.str();
}

TEST(RunSpecConversion, DefaultSpecReproducesLegacyDefaults) {
  const RunSpec spec;
  // Trace replays share the unified machine description (16 procs, one
  // replay thread) instead of the old standalone TraceRunConfig defaults.
  const core::TraceRunConfig trace = spec.to_trace();
  const core::TraceRunConfig legacy_trace;
  EXPECT_EQ(trace.nprocs, 16u);
  EXPECT_EQ(trace.canonical_grain, legacy_trace.canonical_grain);
  EXPECT_DOUBLE_EQ(trace.stale_weight, legacy_trace.stale_weight);
  EXPECT_EQ(trace.threads, 1u);
  EXPECT_EQ(trace.shared_cache, nullptr);
}

TEST(RunSpecConversion, FieldsMapThrough) {
  RunSpec spec;
  spec.nprocs = 24;
  spec.seed = 7;
  spec.strategy = "SFC";
  spec.dynamic_capacities = true;
  const core::SystemSensitiveConfig sensitive = spec.to_system_sensitive();
  EXPECT_EQ(sensitive.nprocs, 24u);
  EXPECT_EQ(sensitive.seed, 7u);
  EXPECT_EQ(sensitive.partitioner, "SFC");
  EXPECT_TRUE(sensitive.dynamic_capacities);
}

TEST(RunSpecDerived, IsolatesSeedDirAndArtifacts) {
  RunSpec spec;
  spec.name = "batch";
  spec.seed = 40;
  spec.persist.dir = "ckpt";
  spec.obs.tracing = true;
  spec.obs.trace_path = "trace.json";
  spec.obs.metrics = true;
  spec.obs.metrics_path = "metrics.json";

  const RunSpec third = spec.derived(3);
  EXPECT_EQ(third.name, "batch-3");
  EXPECT_EQ(third.seed, 40u + 3000u);
  EXPECT_EQ(third.persist.dir, "ckpt-3");
  EXPECT_EQ(third.obs.trace_path, "trace-3.json");
  EXPECT_EQ(third.obs.metrics_path, "metrics-3.json");

  // derived(i) is a pure function of the spec: equal inputs, equal output.
  EXPECT_EQ(spec.derived(3).seed, third.seed);
  // Artifacts without the facility enabled keep their paths untouched.
  RunSpec quiet = spec;
  quiet.obs.tracing = false;
  EXPECT_EQ(quiet.derived(3).obs.trace_path, "trace.json");
}

TEST(RunSpecCluster, BuildsTheDescribedMachine) {
  RunSpec spec;
  spec.nprocs = 8;
  EXPECT_EQ(build_cluster(spec).size(), 8u);

  spec.capacity_spread = 0.35;
  const grid::Cluster heterogeneous = build_cluster(spec);
  EXPECT_EQ(heterogeneous.size(), 8u);
  double min_peak = 1e300;
  double max_peak = 0.0;
  for (std::size_t n = 0; n < heterogeneous.size(); ++n) {
    const double peak = heterogeneous.node(static_cast<grid::NodeId>(n))
                            .spec()
                            .peak_gflops;
    min_peak = std::min(min_peak, peak);
    max_peak = std::max(max_peak, peak);
  }
  EXPECT_GT(max_peak, min_peak);

  spec.capacity_spread = 0.0;
  spec.sites = 2;
  spec.nprocs = 8;
  const grid::Cluster federated = build_cluster(spec);
  EXPECT_EQ(federated.size(), 8u);
  EXPECT_NE(federated.site_of(0), federated.site_of(7));
}

class RunFlagsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : {"PRAGMA_STEPS", "PRAGMA_PROCS", "PRAGMA_SEED",
                             "PRAGMA_DETERMINISTIC", "PRAGMA_TENANT"})
      ::unsetenv(name);
  }
};

TEST_F(RunFlagsTest, CliOverridesEnvOverridesDefault) {
  ::setenv("PRAGMA_STEPS", "60", 1);
  ::setenv("PRAGMA_PROCS", "4", 1);
  ::setenv("PRAGMA_TENANT", "ops", 1);

  util::CliFlags flags("test");
  add_run_flags(flags, RunSpec{});
  flags.merge_env("PRAGMA");
  const char* argv[] = {"test", "--procs", "12"};
  ASSERT_TRUE(flags.parse(3, argv));

  const RunSpec spec = spec_from_flags(flags);
  EXPECT_EQ(spec.app.coarse_steps, 60);  // env beats the default
  EXPECT_EQ(spec.nprocs, 12u);           // CLI beats the env
  EXPECT_EQ(spec.tenant, "ops");
  EXPECT_EQ(spec.seed, 40u);  // untouched default
}

TEST_F(RunFlagsTest, MalformedEnvValueFailsLoudly) {
  ::setenv("PRAGMA_SEED", "not-a-number", 1);
  util::CliFlags flags("test");
  add_run_flags(flags, RunSpec{});
  EXPECT_THROW(flags.merge_env("PRAGMA"), std::invalid_argument);
}

TEST_F(RunFlagsTest, DeterministicFlagModelsPartitionCost) {
  ::setenv("PRAGMA_DETERMINISTIC", "1", 1);
  util::CliFlags flags("test");
  add_run_flags(flags, RunSpec{});
  flags.merge_env("PRAGMA");
  const char* argv[] = {"test"};
  ASSERT_TRUE(flags.parse(1, argv));
  const RunSpec spec = spec_from_flags(flags);
  EXPECT_GT(spec.modeled_partition_s_per_cell, 0.0);
}

TEST(RuntimeFacade, BuilderDefaultsFlowIntoSpecs) {
  util::ThreadPool pool(1);
  auto runtime = Runtime::Builder{}
                     .grid({.nprocs = 12, .capacity_spread = 0.2, .seed = 7})
                     .workers(2)
                     .queue_capacity(5)
                     .pool(&pool)
                     .build();
  const RunSpec defaults = runtime.spec();
  EXPECT_EQ(defaults.nprocs, 12u);
  EXPECT_DOUBLE_EQ(defaults.capacity_spread, 0.2);
  EXPECT_EQ(defaults.seed, 7u);
  EXPECT_EQ(runtime.scheduler().config().workers, 2u);
  EXPECT_EQ(runtime.scheduler().config().queue_capacity, 5u);
  EXPECT_EQ(runtime.cluster().size(), 12u);
}

TEST(RuntimeFacade, SynchronousRunReportsRejectionAsFailedOutcome) {
  util::ThreadPool pool(1);
  auto runtime =
      Runtime::Builder{}.workers(1).queue_capacity(1).pool(&pool).build();

  // Wedge the only worker and fill the queue so run() gets shed.
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  RunSpec blocker;
  blocker.kind = WorkloadKind::kCustom;
  blocker.custom = [release](RunContext&) {
    release.wait();
    return util::Status::ok();
  };
  RunHandle running = runtime.submit(blocker).value();
  RunHandle queued = runtime.submit(blocker).value();

  RunSpec shed;
  shed.kind = WorkloadKind::kCustom;
  shed.custom = [](RunContext&) { return util::Status::ok(); };
  const RunOutcome outcome = runtime.run(shed);
  EXPECT_EQ(outcome.state, RunState::kFailed);
  EXPECT_EQ(outcome.status.code(), util::StatusCode::kUnavailable);

  gate.set_value();
  runtime.drain();
  EXPECT_EQ(runtime.stats().rejected, 1u);
}

TEST(RuntimeFacade, ConcurrentReplaysShareOneCacheAndStayDeterministic) {
  const auto trace = small_trace();

  // Serial reference through the legacy entry point.  Partitioning cost
  // is modeled (cells * constant) on both paths: the wall-clock
  // measurement could never match bitwise across schedulers.
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  core::TraceRunConfig config;
  config.nprocs = 16;
  config.modeled_partition_s_per_cell = 50e-9;
  const core::TraceRunner runner(*trace, cluster, config);
  std::vector<std::string> serial;
  for (const char* name : {"SFC", "G-MISP+SP", "pBD-ISP"})
    serial.push_back(fingerprint(runner.run_static(name)));
  serial.push_back(
      fingerprint(runner.run_adaptive(policy::standard_policy_base())));

  util::ThreadPool pool(4);
  auto runtime = Runtime::Builder{}.workers(4).pool(&pool).build();
  RunSpec spec = runtime.spec();
  spec.kind = WorkloadKind::kTraceReplay;
  spec.trace = trace;
  spec.modeled_partition_s_per_cell = 50e-9;
  std::vector<RunHandle> handles;
  for (const char* name : {"SFC", "G-MISP+SP", "pBD-ISP", "adaptive"}) {
    spec.name = name;
    spec.strategy = name;
    handles.push_back(runtime.submit(spec).value());
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const RunOutcome& outcome = handles[i].wait();
    ASSERT_EQ(outcome.state, RunState::kCompleted);
    EXPECT_EQ(fingerprint(outcome.replay), serial[i]);
  }
}

// The runtime keys each per-trace work-grid cache by the trace object.  A
// trace freed and reallocated at the same address must get its own grids,
// not the dead trace's.
TEST(RuntimeFacade, TraceAtAFreedTracesAddressGetsItsOwnGrids) {
  // Both traces live in one static slot, so the second lands at the
  // first one's address.  The deleter only runs the destructor: a
  // make_shared block would stay allocated while any weak_ptr observes
  // it, and the address could not be reused.
  alignas(amr::AdaptationTrace) static unsigned char
      slot[sizeof(amr::AdaptationTrace)];
  auto make_trace = [](std::uint64_t seed) {
    amr::Rm3dConfig app;
    app.coarse_steps = 64;
    app.seed = seed;
    return amr::Rm3dEmulator(app).run();
  };
  auto in_slot = [](amr::AdaptationTrace trace, std::promise<void>* freed) {
    return std::shared_ptr<const amr::AdaptationTrace>(
        new (slot) amr::AdaptationTrace(std::move(trace)),
        [freed](const amr::AdaptationTrace* dead) {
          dead->~AdaptationTrace();
          if (freed != nullptr) freed->set_value();
        });
  };
  amr::AdaptationTrace first_trace = make_trace(7);
  amr::AdaptationTrace second_trace = make_trace(8);

  util::ThreadPool pool(1);
  auto runtime = Runtime::Builder{}.pool(&pool).build();
  RunSpec spec = runtime.spec();
  spec.kind = WorkloadKind::kTraceReplay;
  spec.strategy = "G-MISP+SP";
  spec.modeled_partition_s_per_cell = 50e-9;

  std::promise<void> first_freed;
  spec.trace = in_slot(std::move(first_trace), &first_freed);
  ASSERT_EQ(runtime.run(spec).state, RunState::kCompleted);
  // Drop the first trace; the pool thread may release the run's copy
  // last, so wait for the destructor before reusing the slot.
  spec.trace.reset();
  first_freed.get_future().wait();

  spec.trace = in_slot(std::move(second_trace), nullptr);
  const RunOutcome outcome = runtime.run(spec);
  ASSERT_EQ(outcome.state, RunState::kCompleted);

  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  core::TraceRunConfig config;
  config.nprocs = 16;
  config.modeled_partition_s_per_cell = 50e-9;
  const core::TraceRunner runner(*spec.trace, cluster, config);
  EXPECT_EQ(fingerprint(outcome.replay),
            fingerprint(runner.run_static("G-MISP+SP")));
}

TEST(RuntimeFacade, SystemSensitiveRunsThroughTheScheduler) {
  const auto trace = small_trace(60);
  util::ThreadPool pool(1);
  auto runtime = Runtime::Builder{}.pool(&pool).build();
  RunSpec spec = runtime.spec();
  spec.kind = WorkloadKind::kSystemSensitive;
  spec.trace = trace;
  spec.nprocs = 8;
  spec.capacity_spread = 0.35;
  spec.seed = 11;
  const RunOutcome outcome = runtime.run(spec);
  ASSERT_EQ(outcome.state, RunState::kCompleted);
  EXPECT_EQ(outcome.system_sensitive.capacities.size(), 8u);
  EXPECT_GT(outcome.system_sensitive.default_runtime_s, 0.0);
}

TEST(WorkbenchTest, AssemblesTheStandardWiring) {
  RunSpec spec;
  spec.nprocs = 4;
  spec.seed = 5;
  spec.capacity_spread = 0.35;
  spec.with_background_load = true;
  Workbench bench(spec);
  EXPECT_EQ(bench.cluster().size(), 4u);

  bench.start_monitoring();
  bench.start_monitoring();  // idempotent
  bench.advance(120.0);
  EXPECT_GT(bench.simulator().now(), 0.0);
  EXPECT_FALSE(
      bench.monitor().series(0, monitor::Resource::kCpu).values().empty());

  agents::Environment& environment = bench.environment();
  EXPECT_EQ(environment.agent_count(), 4u);
  EXPECT_EQ(&environment, &bench.environment()) << "built once, then cached";
}

}  // namespace
}  // namespace pragma::service
