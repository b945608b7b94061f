#include "pragma/monitor/capacity.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "pragma/grid/loadgen.hpp"
#include "pragma/monitor/resource_monitor.hpp"

namespace pragma::monitor {
namespace {

std::vector<NodeReading> make_readings(
    std::initializer_list<std::array<double, 3>> rows) {
  std::vector<NodeReading> readings;
  for (const auto& row : rows)
    readings.push_back(NodeReading{row[0], row[1], row[2]});
  return readings;
}

TEST(CapacityCalculator, FractionsSumToOne) {
  const CapacityCalculator calculator;
  const auto capacities = calculator.from_readings(make_readings(
      {{1.0, 512.0, 100.0}, {2.0, 256.0, 100.0}, {0.5, 1024.0, 50.0}}));
  double total = 0.0;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    EXPECT_GE(capacities[i], 0.0);
    total += capacities[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CapacityCalculator, IdenticalNodesGetEqualShares) {
  const CapacityCalculator calculator;
  const auto capacities = calculator.from_readings(make_readings(
      {{1.0, 512.0, 100.0}, {1.0, 512.0, 100.0}, {1.0, 512.0, 100.0}}));
  for (std::size_t i = 0; i < capacities.size(); ++i)
    EXPECT_NEAR(capacities[i], 1.0 / 3.0, 1e-12);
}

TEST(CapacityCalculator, PureCpuWeightIsProportionalToCpu) {
  const CapacityCalculator calculator(CapacityWeights{1.0, 0.0, 0.0});
  const auto capacities = calculator.from_readings(make_readings(
      {{3.0, 1.0, 1.0}, {1.0, 100.0, 100.0}}));
  EXPECT_NEAR(capacities[0], 0.75, 1e-12);
  EXPECT_NEAR(capacities[1], 0.25, 1e-12);
}

TEST(CapacityCalculator, WeightsAreNormalized) {
  // Weights (2, 0, 0) behave like (1, 0, 0).
  const CapacityCalculator a(CapacityWeights{2.0, 0.0, 0.0});
  const CapacityCalculator b(CapacityWeights{1.0, 0.0, 0.0});
  const auto readings = make_readings({{3.0, 5.0, 7.0}, {1.0, 50.0, 7.0}});
  const auto ca = a.from_readings(readings);
  const auto cb = b.from_readings(readings);
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_NEAR(ca[i], cb[i], 1e-12);
}

TEST(CapacityCalculator, DeadNodeGetsZero) {
  const CapacityCalculator calculator(CapacityWeights{1.0, 0.0, 0.0});
  const auto capacities = calculator.from_readings(
      make_readings({{0.0, 0.0, 0.0}, {1.0, 512.0, 100.0}}));
  EXPECT_DOUBLE_EQ(capacities[0], 0.0);
  EXPECT_NEAR(capacities[1], 1.0, 1e-12);
}

TEST(CapacityCalculator, AllZeroReadingsGiveAllZeros) {
  const CapacityCalculator calculator;
  const auto capacities = calculator.from_readings(
      make_readings({{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}}));
  for (std::size_t i = 0; i < capacities.size(); ++i)
    EXPECT_DOUBLE_EQ(capacities[i], 0.0);
}

TEST(CapacityCalculator, NegativeReadingsClampedToZero) {
  const CapacityCalculator calculator(CapacityWeights{1.0, 0.0, 0.0});
  const auto capacities = calculator.from_readings(
      make_readings({{-5.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}));
  EXPECT_DOUBLE_EQ(capacities[0], 0.0);
  EXPECT_NEAR(capacities[1], 1.0, 1e-12);
}

class MonitoredClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(21);
    cluster_ = grid::ClusterBuilder::heterogeneous(6, rng);
    monitor_ = std::make_unique<ResourceMonitor>(simulator_, cluster_,
                                                 ResourceMonitorConfig{},
                                                 util::Rng(22));
  }
  sim::Simulator simulator_;
  grid::Cluster cluster_;
  std::unique_ptr<ResourceMonitor> monitor_;
};

TEST_F(MonitoredClusterTest, SamplesAccumulate) {
  monitor_->start();
  simulator_.run(20.0);
  EXPECT_GE(monitor_->sweeps(), 10u);
  EXPECT_GE(monitor_->series(0, Resource::kCpu).size(), 10u);
}

TEST_F(MonitoredClusterTest, ReadingsTrackTruthWithinNoise) {
  cluster_.node(0).state().background_load = 0.5;
  monitor_->sample_now();
  const NodeReading reading = monitor_->current(0);
  const double truth = cluster_.node(0).effective_gflops();
  EXPECT_NEAR(reading.cpu_gflops, truth, truth * 0.15);
  EXPECT_GT(reading.memory_mib, 0.0);
  EXPECT_GT(reading.bandwidth_mbps, 0.0);
}

TEST_F(MonitoredClusterTest, DownNodeReadsZeroCpu) {
  cluster_.node(2).state().up = false;
  monitor_->sample_now();
  EXPECT_DOUBLE_EQ(monitor_->current(2).cpu_gflops, 0.0);
}

TEST_F(MonitoredClusterTest, ForecastTracksStableLoad) {
  cluster_.node(1).state().background_load = 0.3;
  for (int i = 0; i < 40; ++i) {
    monitor_->sample_now();
  }
  const double truth = cluster_.node(1).effective_gflops();
  EXPECT_NEAR(monitor_->forecast(1, Resource::kCpu), truth, truth * 0.1);
}

// Forecasts are computed when read.  An ensemble fed eagerly with every
// sample a sweep appends must agree with them bit for bit, also after more
// unread sweeps than the series retains and around a node whose series
// stalls while it is unreachable.
TEST(ResourceMonitorForecast, OnDemandEqualsEagerBitForBit) {
  constexpr std::size_t kNodes = 4;
  constexpr std::array<Resource, 3> kResources = {
      Resource::kCpu, Resource::kMemory, Resource::kBandwidth};
  const std::set<int> read_at = {1, 2, 7, 30, 60};
  sim::Simulator simulator;
  util::Rng rng(31);
  grid::Cluster cluster = grid::ClusterBuilder::heterogeneous(kNodes, rng);
  grid::LoadGenerator load(simulator, cluster, {}, util::Rng(32));
  load.start();
  ResourceMonitorConfig config;
  config.history = 8;
  ResourceMonitor monitor(simulator, cluster, config, util::Rng(33));
  int sweep = 0;
  monitor.set_reachability([&sweep](grid::NodeId node) {
    return node != 2 || sweep < 10 || sweep > 14;
  });

  std::vector<std::unique_ptr<AdaptiveForecaster>> eager;
  for (std::size_t i = 0; i < kNodes * kResources.size(); ++i)
    eager.push_back(AdaptiveForecaster::standard());
  std::size_t skipped = 0;
  for (sweep = 1; sweep <= 60; ++sweep) {
    simulator.run(2.0 * sweep);
    monitor.sample_now();
    for (grid::NodeId node = 0; node < kNodes; ++node) {
      for (std::size_t r = 0; r < kResources.size(); ++r) {
        AdaptiveForecaster& reference = *eager[node * kResources.size() + r];
        if (monitor.last_sample_time(node, kResources[r]) == simulator.now())
          reference.observe(monitor.series(node, kResources[r]).back().value);
        else
          ++skipped;
        if (read_at.count(sweep) == 0) continue;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      monitor.forecast(node, kResources[r])),
                  std::bit_cast<std::uint64_t>(reference.predict()))
            << "sweep " << sweep << " node " << node << " resource " << r;
        EXPECT_EQ(monitor.forecaster_choice(node, kResources[r]),
                  reference.best_member())
            << "sweep " << sweep << " node " << node << " resource " << r;
      }
    }
  }
  EXPECT_EQ(skipped, 5 * kResources.size());  // node 2, sweeps 10-14
  EXPECT_EQ(monitor.series(0, Resource::kCpu).size(), 8u);
}

TEST_F(MonitoredClusterTest, CapacitiesFavorFasterNodes) {
  // Make node 3 clearly the fastest and unloaded.
  for (grid::NodeId i = 0; i < cluster_.size(); ++i)
    cluster_.node(i).state().background_load = (i == 3) ? 0.0 : 0.6;
  for (int i = 0; i < 10; ++i) monitor_->sample_now();
  const CapacityCalculator calculator(CapacityWeights{1.0, 0.0, 0.0});
  const auto capacities = calculator.from_current(*monitor_);
  for (grid::NodeId i = 0; i < cluster_.size(); ++i) {
    if (i == 3) continue;
    const double speed_ratio = cluster_.node(3).effective_gflops() /
                               cluster_.node(i).effective_gflops();
    if (speed_ratio > 1.2) {
      EXPECT_GT(capacities[3], capacities[i]);
    }
  }
}

TEST_F(MonitoredClusterTest, ForecastCapacitiesAlsoNormalized) {
  for (int i = 0; i < 20; ++i) monitor_->sample_now();
  const CapacityCalculator calculator;
  const auto capacities = calculator.from_forecast(*monitor_);
  double total = 0.0;
  for (std::size_t i = 0; i < capacities.size(); ++i) total += capacities[i];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(MonitoredClusterTest, FreshReadingsMatchPlainCapacities) {
  monitor_->start();
  simulator_.run(10.0);
  const CapacityCalculator calculator;
  const auto plain = calculator.from_current(*monitor_);
  const auto aware =
      calculator.from_current(*monitor_, simulator_.now(), StalenessPolicy{});
  ASSERT_EQ(aware.size(), plain.size());
  // Everything was swept within fresh_age_s: staleness handling is a no-op.
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_NEAR(aware[i], plain[i], 1e-12);
}

TEST_F(MonitoredClusterTest, UnreachableNodeDecaysTowardZero) {
  monitor_->start();
  simulator_.run(10.0);
  monitor_->set_reachability([](grid::NodeId node) { return node != 2; });
  simulator_.run(70.0);  // node 2's last sample is now ~60 s stale
  EXPECT_LE(monitor_->last_sample_time(2, Resource::kCpu), 10.0);
  const CapacityCalculator calculator;
  const auto naive = calculator.from_current(*monitor_);
  const auto aware =
      calculator.from_current(*monitor_, simulator_.now(), StalenessPolicy{});
  // Trusting the last-known reading would hand the silent node a full
  // share; the staleness policy shrinks it to (nearly) nothing.
  EXPECT_GT(naive[2], 0.05);
  EXPECT_LT(aware[2], 0.05 * naive[2]);
  double total = 0.0;
  for (std::size_t i = 0; i < aware.size(); ++i) total += aware[i];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(MonitoredClusterTest, StalePriorFractionKeepsConservativeShare) {
  monitor_->start();
  simulator_.run(10.0);
  monitor_->set_reachability([](grid::NodeId node) { return node != 2; });
  simulator_.run(70.0);
  StalenessPolicy zero_prior;  // decays to nothing
  StalenessPolicy half_prior;
  half_prior.prior_fraction = 0.5;  // decays to half the median fresh node
  const CapacityCalculator calculator;
  const auto pessimistic =
      calculator.from_current(*monitor_, simulator_.now(), zero_prior);
  const auto conservative =
      calculator.from_current(*monitor_, simulator_.now(), half_prior);
  EXPECT_GT(conservative[2], pessimistic[2]);
  EXPECT_GT(conservative[2], 0.01);
}

TEST_F(MonitoredClusterTest, ProactiveFallsBackOnSeriesGaps) {
  monitor_->start();
  simulator_.run(10.0);
  monitor_->set_reachability([](grid::NodeId node) { return node != 1; });
  simulator_.run(70.0);
  const CapacityCalculator calculator;
  // The forecaster would happily extrapolate across the gap; the
  // staleness-aware proactive path must fall back to the decayed reading.
  const auto aware =
      calculator.from_forecast(*monitor_, simulator_.now(), StalenessPolicy{});
  const auto naive = calculator.from_forecast(*monitor_);
  EXPECT_GT(naive[1], 0.05);
  EXPECT_LT(aware[1], 0.05 * naive[1]);
  double total = 0.0;
  for (std::size_t i = 0; i < aware.size(); ++i) total += aware[i];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(MonitoredClusterTest, StopHaltsSampling) {
  monitor_->start();
  simulator_.run(10.0);
  const std::size_t sweeps = monitor_->sweeps();
  monitor_->stop();
  simulator_.run(50.0);
  EXPECT_EQ(monitor_->sweeps(), sweeps);
}

}  // namespace
}  // namespace pragma::monitor
