#include "pragma/core/managed_run.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pragma/obs/tracer.hpp"

namespace pragma::core {
namespace {

namespace fs = std::filesystem;

ManagedRunConfig small_config(int steps = 60) {
  ManagedRunConfig config;
  config.app.coarse_steps = steps;
  config.nprocs = 8;
  return config;
}

TEST(ManagedRun, CompletesAndReports) {
  ManagedRun managed(small_config());
  const ManagedRunReport report = managed.run();
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_EQ(report.regrids, 15u);  // 60 steps / regrid interval 4
  EXPECT_GE(report.repartitions, 1u);
  EXPECT_EQ(report.records.size(), report.regrids);
  for (const ManagedStepRecord& record : report.records) {
    EXPECT_FALSE(record.octant.empty());
    EXPECT_FALSE(record.partitioner.empty());
    EXPECT_EQ(record.live_nodes, 8u);
  }
}

TEST(ManagedRun, DeterministicForSeed) {
  const ManagedRunReport a = ManagedRun(small_config()).run();
  const ManagedRunReport b = ManagedRun(small_config()).run();
  // The only nondeterministic contribution is the wall-clock-measured
  // partitioning cost (scaled into simulated seconds); everything else is
  // seed-determined.
  EXPECT_NEAR(a.total_time_s, b.total_time_s, 0.01 * a.total_time_s);
  EXPECT_EQ(a.repartitions, b.repartitions);
  EXPECT_EQ(a.regrids, b.regrids);
  EXPECT_EQ(a.partitioner_switches, b.partitioner_switches);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].octant, b.records[i].octant);
    EXPECT_EQ(a.records[i].partitioner, b.records[i].partitioner);
  }
}

TEST(ManagedRun, SurvivesNodeFailureViaAgents) {
  ManagedRunConfig config = small_config(80);
  ManagedRun managed(config);
  // Fail node 2 early, permanently.
  managed.schedule_failure(0.5, 2, -1.0);
  const ManagedRunReport report = managed.run();
  // The run completes despite the dead node...
  EXPECT_EQ(report.regrids, 20u);
  // ...because the control network migrated its work.
  EXPECT_GE(report.migrations, 1u);
  // Later records see the reduced cluster.
  EXPECT_EQ(report.records.back().live_nodes, 7u);
}

TEST(ManagedRun, FailedNodeReceivesNoWork) {
  ManagedRunConfig config = small_config(40);
  ManagedRun managed(config);
  managed.schedule_failure(0.5, 5, -1.0);
  const ManagedRunReport report = managed.run();
  EXPECT_GE(report.migrations, 1u);
  // Execution time stays finite and sane (no unbounded stall).
  EXPECT_LT(report.total_time_s, 1e6);
}

TEST(ManagedRun, BackgroundLoadTriggersAgentEvents) {
  ManagedRunConfig config = small_config(60);
  config.with_background_load = true;
  config.load.mean_cpu_load = 0.7;
  config.load.node_bias_spread = 0.4;
  config.load_event_threshold = 0.75;
  ManagedRun managed(config);
  const ManagedRunReport report = managed.run();
  EXPECT_GT(report.agent_events, 0u);
  EXPECT_GT(report.adm_decisions, 0u);
}

TEST(ManagedRun, SystemSensitiveUsesCapacities) {
  ManagedRunConfig config = small_config(60);
  config.capacity_spread = 0.5;
  config.system_sensitive = true;
  ManagedRunConfig equal = config;
  equal.system_sensitive = false;
  const double sensitive = ManagedRun(config).run().total_time_s;
  const double uniform = ManagedRun(equal).run().total_time_s;
  // Capacity weighting beats equal shares on a heterogeneous cluster.
  EXPECT_LT(sensitive, uniform);
}

TEST(ManagedRun, ProactiveModeRuns) {
  ManagedRunConfig config = small_config(40);
  config.capacity_spread = 0.35;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.proactive = true;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_EQ(report.regrids, 10u);
}

TEST(ManagedRun, SwitchesPartitionersAcrossPhases) {
  // 200 steps cross the quiescent -> shock transition.
  ManagedRun managed(small_config(200));
  const ManagedRunReport report = managed.run();
  EXPECT_GE(report.partitioner_switches, 1u);
}

// Between two regrids the hierarchy is fixed, so the event repartitions
// reuse the regrid's classification and grids: at most two grids (the
// canonical one and a native one) are rasterized per regrid, while every
// repartition still selects a partitioner.
TEST(ManagedRun, EventRepartitionsReuseTheRegridsGrids) {
  ManagedRunConfig config = small_config(40);
  config.with_background_load = true;
  config.system_sensitive = true;
  config.ft.enabled = true;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  const ManagedRunReport report = ManagedRun(config).run();
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.set_enabled(false);
  tracer.clear();

  const auto spans = [&events](const char* name) {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [name](const obs::TraceEvent& event) {
                        return std::strcmp(event.name, name) == 0;
                      }));
  };
  EXPECT_GT(report.event_repartitions, 0u);
  EXPECT_LE(spans("WorkGrid.build"), 2 * (report.regrids + 1));
  EXPECT_EQ(spans("MetaPartitioner.select"),
            report.repartitions + report.event_repartitions +
                report.migrations);
}

/// perfbench's managed_rm3d run at its default seed: 200 steps on 16
/// heterogeneous procs with background load, capacity-weighted targets,
/// a lossy control plane, durable checkpoints, the modeled partition cost
/// and node 3 down at 60 s for 120 s.  Every persisted report and record
/// field at %.17g, plus the checkpoints persisted.
std::string full_run_reference_text() {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "pragma_managed_full_run";
  fs::remove_all(dir);
  ManagedRunConfig config;
  config.app.coarse_steps = 200;
  config.nprocs = 16;
  config.capacity_spread = 0.35;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.ft.enabled = true;
  config.ft.channel.drop_probability = 0.05;
  config.persist.enabled = true;
  config.persist.dir = dir.string();
  config.modeled_partition_s_per_cell = 50e-9;
  ManagedRun managed(config);
  managed.schedule_failure(60.0, 3, 120.0);
  const ManagedRunReport r = managed.run();
  fs::remove_all(dir);

  std::string out;
  char line[512];
  const auto real = [&](const char* name, double value) {
    std::snprintf(line, sizeof(line), "%s %.17g\n", name, value);
    out += line;
  };
  const auto count = [&](const char* name, std::size_t value) {
    std::snprintf(line, sizeof(line), "%s %zu\n", name, value);
    out += line;
  };
  real("total_time_s", r.total_time_s);
  count("regrids", r.regrids);
  count("repartitions", r.repartitions);
  count("agent_events", r.agent_events);
  count("adm_decisions", r.adm_decisions);
  count("event_repartitions", r.event_repartitions);
  count("migrations", r.migrations);
  count("partitioner_switches", r.partitioner_switches);
  count("checkpoints", r.checkpoints);
  real("checkpoint_time_s", r.checkpoint_time_s);
  count("detected_failures", r.detected_failures);
  count("suspects", r.suspects);
  count("false_suspects", r.false_suspects);
  count("detector_recoveries", r.detector_recoveries);
  real("detection_latency_s", r.detection_latency_s);
  real("recovery_time_s", r.recovery_time_s);
  real("cells_advanced", r.cells_advanced);
  real("recomputed_cells", r.recomputed_cells);
  count("lost_directives", r.lost_directives);
  count("directive_retries", r.directive_retries);
  count("directives_abandoned", r.directives_abandoned);
  count("messages_lost", r.messages_lost);
  count("messages_partition_dropped", r.messages_partition_dropped);
  count("duplicates_suppressed", r.duplicates_suppressed);
  count("heartbeats_received", r.heartbeats_received);
  count("checkpoints_persisted", r.checkpoints_persisted);
  count("records", r.records.size());
  for (const ManagedStepRecord& s : r.records) {
    std::snprintf(line, sizeof(line),
                  "  %d %s %s %.17g %.17g %.17g %zu %d %.17g %.17g %.17g\n",
                  s.step, s.octant.c_str(), s.partitioner.c_str(),
                  s.sim_time_s, s.step_time_s, s.imbalance, s.live_nodes,
                  s.repartitioned ? 1 : 0, s.recovery_s, s.lost_cells,
                  s.detection_s);
    out += line;
  }
  return out;
}

// Pins the 200-step managed run bit for bit.  On a mismatch the
// regenerated text is written to managed_report_reference.actual in the
// working directory; after a deliberate change to managed-run numbers,
// copy it over the reference.
TEST(ManagedRun, FullRunMatchesCommittedReference) {
  const std::string path =
      std::string(PRAGMA_SOURCE_DIR) + "/ci/managed_report_reference.out";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string actual = full_run_reference_text();
  if (actual == expected.str()) return;
  std::ofstream("managed_report_reference.actual", std::ios::binary)
      << actual;
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string a_line;
  std::string e_line;
  for (int n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, a_line));
    const bool more_e = static_cast<bool>(std::getline(e, e_line));
    if (!more_a && !more_e) break;
    if (!more_a || !more_e || a_line != e_line) {
      ADD_FAILURE() << path << " differs at line " << n << "\n  expected: "
                    << (more_e ? e_line : "<eof>")
                    << "\n  actual:   " << (more_a ? a_line : "<eof>");
      return;
    }
  }
}

}  // namespace
}  // namespace pragma::core
