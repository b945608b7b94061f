// Integration tests for the fault-tolerant control plane inside
// ManagedRun: heartbeat detection of real failures, checkpoint/rollback
// accounting, directive delivery over a lossy channel, and the two
// properties the chaos soak leans on — work conservation and bit-exact
// determinism at a fixed seed.
#include "pragma/core/managed_run.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace pragma::core {
namespace {

ManagedRunConfig ft_config(int steps = 40) {
  ManagedRunConfig config;
  config.app.coarse_steps = steps;
  config.nprocs = 8;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.ft.enabled = true;
  config.checkpoint_interval_s = 20.0;
  return config;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(FaultTolerantRun, DisabledByDefaultAndInert) {
  ManagedRunConfig config;
  config.app.coarse_steps = 40;
  config.nprocs = 8;
  EXPECT_FALSE(config.ft.enabled);
  const ManagedRunReport report = ManagedRun(config).run();
  // No FT machinery ran: all telemetry stays zero.
  EXPECT_EQ(report.checkpoints, 0u);
  EXPECT_EQ(report.heartbeats_received, 0u);
  EXPECT_EQ(report.detected_failures, 0u);
  EXPECT_DOUBLE_EQ(report.cells_advanced, 0.0);
  EXPECT_DOUBLE_EQ(report.checkpoint_time_s, 0.0);
}

TEST(FaultTolerantRun, CleanRunHasCleanTelemetry) {
  const ManagedRunReport report = ManagedRun(ft_config()).run();
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_GT(report.cells_advanced, 0.0);
  EXPECT_GT(report.checkpoints, 0u);
  EXPECT_GT(report.checkpoint_time_s, 0.0);
  EXPECT_GT(report.heartbeats_received, 0u);
  // A perfect channel and a healthy cluster: nothing detected, nothing
  // lost, nothing recomputed.
  EXPECT_EQ(report.detected_failures, 0u);
  EXPECT_EQ(report.suspects, 0u);
  EXPECT_EQ(report.false_suspects, 0u);
  EXPECT_EQ(report.lost_directives, 0u);
  EXPECT_EQ(report.messages_lost, 0u);
  EXPECT_DOUBLE_EQ(report.recomputed_cells, 0.0);
}

TEST(FaultTolerantRun, DetectsFailureByHeartbeatSilence) {
  ManagedRunConfig config = ft_config(60);
  // No checkpoint before the failure is confirmed (~21 s in), so the
  // rollback must recompute everything the victim did since t = 0.
  config.checkpoint_interval_s = 1000.0;
  ManagedRun managed(config);
  managed.schedule_failure(10.0, 3, /*permanent*/ -1.0);
  const ManagedRunReport report = managed.run();
  EXPECT_EQ(report.detected_failures, 1u);
  EXPECT_GE(report.suspects, 1u);
  EXPECT_EQ(report.false_suspects, 0u);
  EXPECT_GE(report.migrations, 1u);
  // Detection costs confirm_missed heartbeat periods of silence (plus up
  // to one sweep period of alignment).
  const auto& heartbeat = managed.config().ft.heartbeat;
  const double floor = heartbeat.confirm_missed * heartbeat.period_s;
  EXPECT_GE(report.detection_latency_s, floor);
  EXPECT_LE(report.detection_latency_s, floor + 2.0 * heartbeat.period_s);
  // The victim held real work: rollback recomputed something.
  EXPECT_GT(report.recomputed_cells, 0.0);
  EXPECT_GT(report.recovery_time_s, 0.0);
  // The dead node stays out of the final assignment.
  EXPECT_EQ(report.records.back().live_nodes, 7u);
}

TEST(FaultTolerantRun, WorkIsConservedAcrossFailure) {
  const ManagedRunReport clean = ManagedRun(ft_config(60)).run();
  ManagedRun chaotic(ft_config(60));
  chaotic.schedule_failure(10.0, 3, -1.0);
  const ManagedRunReport report = chaotic.run();
  // Every coarse step still completes exactly once: the failed run
  // advances bit-identically the same cell updates, just slower.
  EXPECT_TRUE(same_bits(report.cells_advanced, clean.cells_advanced));
  EXPECT_GT(report.total_time_s, clean.total_time_s);
}

TEST(FaultTolerantRun, LossyChannelLosesNoDirectives) {
  ManagedRunConfig config = ft_config(60);
  config.ft.channel.drop_probability = 0.2;
  config.ft.channel.duplicate_probability = 0.05;
  config.ft.channel.jitter_s = 2.0 * config.exec.message_latency_s;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_GT(report.messages_lost, 0u);  // the channel really was lossy
  EXPECT_EQ(report.lost_directives, 0u);
  EXPECT_EQ(report.false_suspects, 0u);
  // And the application made the same progress as over a perfect channel.
  const ManagedRunReport clean = ManagedRun(ft_config(60)).run();
  EXPECT_TRUE(same_bits(report.cells_advanced, clean.cells_advanced));
}

TEST(FaultTolerantRun, DeterministicReplayIsBitIdentical) {
  auto chaos_config = [] {
    ManagedRunConfig config = ft_config(60);
    config.ft.channel.drop_probability = 0.1;
    config.ft.channel.jitter_s = 2.0 * config.exec.message_latency_s;
    return config;
  };
  auto run_once = [&] {
    ManagedRun managed(chaos_config());
    managed.schedule_failure(10.0, 3, -1.0);
    return managed.run();
  };
  const ManagedRunReport a = run_once();
  const ManagedRunReport b = run_once();
  // Unlike the fault-free path (which may time the partitioner on the
  // wall clock), the FT path models partitioning cost, so equality is
  // exact — the soak harness depends on this.
  EXPECT_TRUE(same_bits(a.total_time_s, b.total_time_s));
  EXPECT_TRUE(same_bits(a.cells_advanced, b.cells_advanced));
  EXPECT_TRUE(same_bits(a.recomputed_cells, b.recomputed_cells));
  EXPECT_EQ(a.detected_failures, b.detected_failures);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.directive_retries, b.directive_retries);
  EXPECT_EQ(a.heartbeats_received, b.heartbeats_received);
  EXPECT_EQ(a.adm_decisions, b.adm_decisions);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
}

TEST(FaultTolerantRun, CheckpointIntervalTradesOverheadForLostWork) {
  auto with_interval = [](double interval_s) {
    ManagedRunConfig config = ft_config(60);
    config.checkpoint_interval_s = interval_s;
    ManagedRun managed(config);
    managed.schedule_failure(10.0, 3, -1.0);
    return managed.run();
  };
  const ManagedRunReport frequent = with_interval(10.0);
  const ManagedRunReport sparse = with_interval(80.0);
  EXPECT_GT(frequent.checkpoints, sparse.checkpoints);
  // Checkpointing more often cannot increase the work lost to the
  // rollback (same failure time, shorter exposure window).
  EXPECT_LE(frequent.recomputed_cells, sparse.recomputed_cells);
}

TEST(FaultTolerantRun, DetectorAndReliableExposedWhenEnabled) {
  ManagedRun managed(ft_config(40));
  (void)managed.run();
  ASSERT_NE(managed.detector(), nullptr);
  ASSERT_NE(managed.reliable(), nullptr);
  EXPECT_GT(managed.detector()->beats_received(), 0u);

  ManagedRunConfig plain;
  plain.app.coarse_steps = 40;
  plain.nprocs = 8;
  ManagedRun legacy(plain);
  EXPECT_EQ(legacy.detector(), nullptr);
  EXPECT_EQ(legacy.reliable(), nullptr);
}

}  // namespace
}  // namespace pragma::core
