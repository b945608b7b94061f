#include "pragma/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace pragma::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_DOUBLE_EQ(simulator.now(), 0.0);
  EXPECT_TRUE(simulator.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(3.0, [&] { order.push_back(3); });
  simulator.schedule(1.0, [&] { order.push_back(1); });
  simulator.schedule(2.0, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    simulator.schedule(1.0, [&order, i] { order.push_back(i); });
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1.0, [&] { ++fired; });
  simulator.schedule(5.0, [&] { ++fired; });
  simulator.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.0);
  simulator.run(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator simulator;
  simulator.run(42.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 42.0);
}

TEST(Simulator, EventsScheduleFurtherEvents) {
  Simulator simulator;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(simulator.now());
    if (times.size() < 5) simulator.schedule(1.0, chain);
  };
  simulator.schedule(1.0, chain);
  simulator.run();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 5.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  int fired = 0;
  const EventHandle handle = simulator.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(simulator.cancel(handle));
  simulator.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator simulator;
  const EventHandle handle = simulator.schedule(1.0, [] {});
  EXPECT_TRUE(simulator.cancel(handle));
  EXPECT_FALSE(simulator.cancel(handle));
}

TEST(Simulator, InvalidHandleCancelIsNoop) {
  Simulator simulator;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(simulator.cancel(handle));
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_periodic(2.0, [&] { ++fired; });
  simulator.run(11.0);
  EXPECT_EQ(fired, 5);  // t = 2,4,6,8,10
}

TEST(Simulator, PeriodicFirstDelayOverride) {
  Simulator simulator;
  std::vector<double> times;
  simulator.schedule_periodic(2.0, [&] { times.push_back(simulator.now()); },
                              /*first_delay=*/0.0);
  simulator.run(5.0);
  ASSERT_GE(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, PeriodicCancelStopsChain) {
  Simulator simulator;
  int fired = 0;
  const EventHandle handle =
      simulator.schedule_periodic(1.0, [&] { ++fired; });
  simulator.run(3.5);
  EXPECT_EQ(fired, 3);
  simulator.cancel(handle);
  simulator.run(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, PeriodicChainReleasesCallback) {
  // A periodic chain must not own itself: once cancelled and drained, or
  // when the simulator goes away with it still pending, the callback (and
  // everything it captured) is released.
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    Simulator simulator;
    const EventHandle handle = simulator.schedule_periodic(
        1.0, [sentinel] { ++*sentinel; });
    simulator.run(2.5);
    EXPECT_TRUE(simulator.cancel(handle));
    simulator.run();
    EXPECT_TRUE(simulator.empty());
    sentinel.reset();
    EXPECT_TRUE(watch.expired());
  }
  sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> pending = sentinel;
  {
    Simulator simulator;
    simulator.schedule_periodic(1.0, [sentinel] { ++*sentinel; });
    simulator.run(2.5);
    EXPECT_EQ(*sentinel, 2);
    sentinel.reset();
    EXPECT_FALSE(pending.expired());  // the chain is still queued
  }
  EXPECT_TRUE(pending.expired());
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1.0, [&] {
    ++fired;
    simulator.request_stop();
  });
  simulator.schedule(2.0, [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator simulator;
  simulator.schedule(1.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.schedule_at(0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, EmptyCallbackThrows) {
  Simulator simulator;
  EXPECT_THROW(simulator.schedule(1.0, Simulator::Callback{}),
               std::invalid_argument);
}

TEST(Simulator, PendingAndExecutedCounts) {
  Simulator simulator;
  simulator.schedule(1.0, [] {});
  simulator.schedule(2.0, [] {});
  EXPECT_EQ(simulator.pending(), 2u);
  simulator.run();
  EXPECT_EQ(simulator.executed(), 2u);
  EXPECT_TRUE(simulator.empty());
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1.0, [&] { ++fired; });
  simulator.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_FALSE(simulator.step());
}

TEST(Simulator, DeterministicReplay) {
  auto run_once = [] {
    Simulator simulator;
    std::vector<double> times;
    for (int i = 0; i < 50; ++i)
      simulator.schedule((i * 7) % 13 * 0.25,
                         [&times, &simulator] { times.push_back(simulator.now()); });
    simulator.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pragma::sim
