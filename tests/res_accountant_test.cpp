#include "pragma/res/accountant.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pragma/res/autoscaler.hpp"

namespace pragma::res {
namespace {

// ---------------------------------------------------------------------------
// RunAccount: charging, latching, and the kill/throttle actions
// ---------------------------------------------------------------------------

TEST(RunAccount, DefaultBudgetEnforcesNothing) {
  ResourceBudget unlimited;
  EXPECT_FALSE(unlimited.any());

  RunAccount account("run", "tenant", unlimited);
  account.charge_cpu(1e6);
  account.charge_io(1ull << 40);
  account.sample_memory(1ull << 40);
  EXPECT_FALSE(account.should_stop());
  EXPECT_FALSE(account.throttled());
  EXPECT_FALSE(account.violated());
  EXPECT_TRUE(account.violation().empty());
}

TEST(RunAccount, CpuKillBudgetLatchesStopAtTheCrossing) {
  ResourceBudget budget;
  budget.cpu_s = 1.0;
  ASSERT_TRUE(budget.any());

  RunAccount account("run", "tenant", budget);
  account.charge_cpu(0.5);
  EXPECT_FALSE(account.should_stop());
  account.charge_cpu(0.4);
  EXPECT_FALSE(account.should_stop());
  account.charge_cpu(0.2);  // 1.1 > 1.0 — the crossing charge latches
  EXPECT_TRUE(account.should_stop());
  EXPECT_TRUE(account.violated());
  EXPECT_NE(account.violation().find("cpu"), std::string::npos);
  EXPECT_FALSE(account.throttled());

  const ResourceUsage usage = account.usage();
  EXPECT_NEAR(usage.cpu_s, 1.1, 1e-12);
  EXPECT_EQ(usage.samples, 3u);  // one per charged step
}

TEST(RunAccount, ThrottleActionSlowsInsteadOfKilling) {
  ResourceBudget budget;
  budget.cpu_s = 1.0;
  budget.action = ResourceBudget::Action::kThrottle;
  budget.throttle_factor = 3.0;

  RunAccount account("run", "tenant", budget);
  account.charge_cpu(2.0);
  EXPECT_TRUE(account.violated());
  EXPECT_TRUE(account.throttled());
  EXPECT_FALSE(account.should_stop());
  EXPECT_DOUBLE_EQ(account.budget().throttle_factor, 3.0);
}

TEST(RunAccount, MemoryBudgetTracksPeakNotLast) {
  ResourceBudget budget;
  budget.mem_bytes = 250;

  RunAccount account("run", "tenant", budget);
  account.sample_memory(100);
  EXPECT_FALSE(account.should_stop());
  account.sample_memory(300);
  EXPECT_TRUE(account.should_stop());
  account.sample_memory(50);  // dropping below does not un-latch
  EXPECT_TRUE(account.should_stop());

  const ResourceUsage usage = account.usage();
  EXPECT_EQ(usage.peak_mem_bytes, 300u);
  EXPECT_GT(usage.steady_mem_bytes, 0.0);
  EXPECT_NE(account.violation().find("mem"), std::string::npos);
}

TEST(RunAccount, IoBudgetAccumulates) {
  ResourceBudget budget;
  budget.io_bytes = 1000;

  RunAccount account("run", "tenant", budget);
  account.charge_io(400);
  account.charge_io(400);
  EXPECT_FALSE(account.should_stop());
  account.charge_io(400);
  EXPECT_TRUE(account.should_stop());
  EXPECT_EQ(account.usage().io_bytes, 1200u);
  EXPECT_NE(account.violation().find("io"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ResourceAccountant: find-or-create, idempotent close, aggregation
// ---------------------------------------------------------------------------

TEST(ResourceAccountant, OpenIsFindOrCreateAndFirstBudgetWins) {
  ResourceAccountant accountant;
  ResourceBudget tight;
  tight.cpu_s = 1.0;

  std::shared_ptr<RunAccount> first = accountant.open("run", "tenant", tight);
  // A re-open (sliced or failed-over run) keeps accumulating into the same
  // account, and the budget of the first open wins over later ones.
  std::shared_ptr<RunAccount> second = accountant.open("run", "tenant", {});
  EXPECT_EQ(first.get(), second.get());
  EXPECT_DOUBLE_EQ(second->budget().cpu_s, 1.0);
  EXPECT_EQ(accountant.open_accounts(), 1u);

  first->charge_cpu(0.7);
  second->charge_cpu(0.7);
  EXPECT_TRUE(first->should_stop());  // charges accumulated into one account
}

TEST(ResourceAccountant, CloseFoldsIntoTenantAggregateExactlyOnce) {
  ResourceAccountant accountant;
  ResourceBudget tight;
  tight.cpu_s = 0.5;

  std::shared_ptr<RunAccount> killed = accountant.open("a", "greedy", tight);
  killed->charge_cpu(1.0);
  std::shared_ptr<RunAccount> fine = accountant.open("b", "greedy", {});
  fine->charge_cpu(2.0);
  fine->charge_io(128);

  accountant.close(killed);
  accountant.close(killed);  // idempotent: second close is a no-op
  accountant.close(fine);
  EXPECT_EQ(accountant.open_accounts(), 0u);

  const TenantUsage greedy = accountant.tenant_usage("greedy");
  EXPECT_EQ(greedy.runs, 2u);
  EXPECT_EQ(greedy.kills, 1u);
  EXPECT_EQ(greedy.throttles, 0u);
  EXPECT_DOUBLE_EQ(greedy.usage.cpu_s, 3.0);
  EXPECT_EQ(greedy.usage.io_bytes, 128u);

  EXPECT_EQ(accountant.kills(), 1u);
  EXPECT_EQ(accountant.throttles(), 0u);
  EXPECT_DOUBLE_EQ(accountant.total().cpu_s, 3.0);
  ASSERT_EQ(accountant.tenants().size(), 1u);
  EXPECT_EQ(accountant.tenants()[0], "greedy");
  EXPECT_EQ(accountant.tenant_usage("unknown").runs, 0u);
}

// ---------------------------------------------------------------------------
// PredictiveAutoscaler: pool sizing, lookahead, cooldown
// ---------------------------------------------------------------------------

AutoscaleConfig scaler_config(bool predictive) {
  AutoscaleConfig config;
  config.enabled = true;
  config.predictive = predictive;
  config.min_workers = 1;
  config.max_workers = 8;
  config.target_runs_per_worker = 2.0;
  config.interval_s = 0.5;
  config.spinup_s = 4.0;
  config.scale_down_after_s = 10.0;
  return config;
}

TEST(PredictiveAutoscaler, ReactiveSizesOnCurrentDemandWithClamping) {
  PredictiveAutoscaler scaler(scaler_config(/*predictive=*/false));
  EXPECT_EQ(scaler.desired_workers(), 1u);  // no demand -> min_workers

  scaler.observe(0.0, 6.0);
  EXPECT_DOUBLE_EQ(scaler.current_demand(), 6.0);
  EXPECT_DOUBLE_EQ(scaler.planning_demand(), 6.0);
  EXPECT_EQ(scaler.desired_workers(), 3u);  // ceil(6 / 2)

  scaler.observe(0.5, 1000.0);
  EXPECT_EQ(scaler.desired_workers(), 8u);  // clamped to max_workers
}

TEST(PredictiveAutoscaler, LeadStepsDefaultCoversTheSpinupDelay) {
  PredictiveAutoscaler scaler(scaler_config(/*predictive=*/true));
  EXPECT_EQ(scaler.lead_steps(), 8u);  // ceil(4.0 / 0.5)

  AutoscaleConfig pinned = scaler_config(/*predictive=*/true);
  pinned.lead_steps = 3;
  EXPECT_EQ(PredictiveAutoscaler(pinned).lead_steps(), 3u);
}

TEST(PredictiveAutoscaler, RampingDemandScalesAheadOfTheCurrentReading) {
  PredictiveAutoscaler predictive(scaler_config(/*predictive=*/true));
  PredictiveAutoscaler reactive(scaler_config(/*predictive=*/false));
  // A steady ramp: the trend the forecaster is built to extrapolate.
  for (int i = 0; i < 12; ++i) {
    const double demand = static_cast<double>(i + 1);
    predictive.observe(0.5 * i, demand);
    reactive.observe(0.5 * i, demand);
  }
  EXPECT_GT(predictive.forecast_demand(), predictive.current_demand());
  EXPECT_GE(predictive.planning_demand(), predictive.current_demand());
  EXPECT_GT(predictive.desired_workers(), reactive.desired_workers());
}

TEST(PredictiveAutoscaler, FallingForecastNeverYanksCapacityMidBurst) {
  PredictiveAutoscaler scaler(scaler_config(/*predictive=*/true));
  for (int i = 0; i < 12; ++i)  // falling series: forecast < current
    scaler.observe(0.5 * i, 24.0 - 2.0 * i);
  EXPECT_DOUBLE_EQ(scaler.planning_demand(), scaler.current_demand());
}

TEST(PredictiveAutoscaler, ScaleDownWaitsOutTheCooldownWindow) {
  PredictiveAutoscaler scaler(scaler_config(/*predictive=*/false));
  scaler.observe(0.0, 1.0);  // desired = 1, well below the 4 alive workers

  EXPECT_FALSE(scaler.scale_down_due(0.0, 4));   // arms the clock
  EXPECT_FALSE(scaler.scale_down_due(5.0, 4));   // inside the window
  EXPECT_TRUE(scaler.scale_down_due(10.0, 4));   // window elapsed

  scaler.note_scaled();  // a scale event resets the clock
  EXPECT_FALSE(scaler.scale_down_due(10.5, 3));
  EXPECT_FALSE(scaler.scale_down_due(15.0, 3));
  EXPECT_TRUE(scaler.scale_down_due(20.5, 3));

  // Demand recovering above the watermark disarms the clock entirely.
  scaler.observe(21.0, 100.0);
  EXPECT_FALSE(scaler.scale_down_due(21.0, 3));
}

}  // namespace
}  // namespace pragma::res
